package jcf

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/itc"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/otod"
	"repro/internal/repl"
)

// startReplicaOf wires a repl pipe replica to a live framework and
// returns the replica plus its read-only view.
func startReplicaOf(t *testing.T, fw *Framework) (*repl.Replica, *Framework) {
	t.Helper()
	ln, d := repl.Pipe()
	pub := repl.NewPublisher(fw.ReplicationSource())
	go func() { _ = pub.Serve(ln) }()
	t.Cleanup(pub.Close)
	schema, err := otod.JCFModel().Schema()
	if err != nil {
		t.Fatal(err)
	}
	rep := repl.NewReplica(schema, d, repl.WithReconnectBackoff(time.Millisecond))
	rep.Start()
	t.Cleanup(rep.Close)
	view, err := NewReplicaView(rep.Store(), fw.Release())
	if err != nil {
		t.Fatal(err)
	}
	return rep, view
}

// catchUp waits until the replica has applied the framework's whole feed.
func catchUp(t *testing.T, rep *repl.Replica, fw *Framework) {
	t.Helper()
	if err := rep.WaitFor(fw.FeedLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaReadOnlyView: a replica view answers the read-side desktop
// API from replicated state and rejects every mutation with
// ErrReadOnlyReplica.
func TestReplicaReadOnlyView(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	// Design data + workspace state on the primary.
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	variants := fw.Variants(w.cv)
	do, err := fw.CreateDesignObject(variants[0], "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "alu.sch")
	if err := os.WriteFile(src, []byte("netlist v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	dov, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}

	rep, view := startReplicaOf(t, fw)
	catchUp(t, rep, fw)

	// Read side: project structure, version history, reservations, data.
	project, err := view.Project("chip1")
	if err != nil {
		t.Fatal(err)
	}
	if got := view.Cells(project); len(got) != 1 || got[0] != "alu" {
		t.Fatalf("replica Cells = %v", got)
	}
	if holder, held := view.ReservedBy(w.cv); !held || holder != "anna" {
		t.Fatalf("replica ReservedBy = %q, %v", holder, held)
	}
	if !view.CanWrite("anna", w.cv) || view.CanWrite("bert", w.cv) {
		t.Fatal("replica workspace access rules broken")
	}
	out := filepath.Join(t.TempDir(), "out.sch")
	if err := view.CheckOutData("anna", dov, out); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(out); string(data) != "netlist v1" {
		t.Fatalf("replica served %q", data)
	}
	if got, want := view.CheckConsistency(), fw.CheckConsistency(); len(got) != len(want) {
		t.Fatalf("replica consistency %v, primary %v", got, want)
	}

	// Write side: every mutating entry point must refuse.
	if _, err := view.CreateUser("mallory"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("CreateUser on replica: %v", err)
	}
	if err := view.Reserve("bert", w.cv); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Reserve on replica: %v", err)
	}
	if err := view.Publish("anna", w.cv); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Publish on replica: %v", err)
	}
	if _, err := view.CheckInData("anna", do, src); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("CheckInData on replica: %v", err)
	}
	if _, err := view.CreateVariant(w.cv); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("CreateVariant on replica: %v", err)
	}
	if err := view.SubmitHierarchy(w.cv, w.cv+1); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("SubmitHierarchy on replica: %v", err)
	}
	if _, _, err := view.CreateConfiguration(w.cv, "cfg"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("CreateConfiguration on replica: %v", err)
	}
	if err := view.SaveTo(nil); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("SaveTo on replica: %v", err)
	}
	if err := view.StartActivity("anna", w.cv, "schematic-entry"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("StartActivity on replica: %v", err)
	}

	// Replicated reads stay current: a release on the primary becomes
	// visible after the barrier.
	if err := fw.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	catchUp(t, rep, fw)
	if _, held := view.ReservedBy(w.cv); held {
		t.Fatal("replica still sees released reservation")
	}
	if !view.Published(w.cv) {
		t.Fatal("replica missed publication")
	}
}

// TestReplicaViewPromote: after failover the promoted view is writable
// and keeps the workspace reservations mirrored through the feed.
func TestReplicaViewPromote(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	rep, view := startReplicaOf(t, fw)
	catchUp(t, rep, fw)

	// Failover: detach the follower store, then flip the view writable.
	_ = rep.Promote()
	if err := view.PromoteToPrimary(); err != nil {
		t.Fatal(err)
	}
	if view.IsReplicaView() {
		t.Fatal("still a replica view after promotion")
	}
	// The reservation survived the failover via the mirrored attribute.
	if holder, held := view.ReservedBy(w.cv); !held || holder != "anna" {
		t.Fatalf("promoted ReservedBy = %q, %v", holder, held)
	}
	// Writable: anna can publish her reserved version, bert can reserve.
	if err := view.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if _, err := view.CreateUser("dora"); err != nil {
		t.Fatal(err)
	}
	if err := view.Reserve("bert", w.cv); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaNotifier: the feed→ITC notifier runs against a replica view
// — replicated commit groups reach local tools in commit order, because
// the follower store republishes the primary's records into its own
// feed.
func TestReplicaNotifier(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	rep, view := startReplicaOf(t, fw)
	catchUp(t, rep, fw)

	bus := itc.NewBus()
	got := make(chan itc.Message, 16)
	bus.Subscribe(TopicCheckin, "viewer", func(m itc.Message) error {
		got <- m
		return nil
	})
	n, err := view.StartNotifier(bus)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	variants := fw.Variants(w.cv)
	do, err := fw.CreateDesignObject(variants[0], "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "alu.sch")
	if err := os.WriteFile(src, []byte("netlist"), 0o644); err != nil {
		t.Fatal(err)
	}
	dov, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Fields["dov"] == "" {
			t.Fatalf("checkin message without dov: %v", m)
		}
		_ = dov
	case <-time.After(10 * time.Second):
		t.Fatal("replica notifier never delivered the checkin")
	}
	if s := n.Stats(); s.Published == 0 {
		t.Fatalf("notifier stats: %+v", s)
	}
}

// metadataAnswers renders what a framework answers about the four kinds
// of framework metadata: a registered flow, a reservation, a typed
// hierarchy and a share.
func metadataAnswers(t *testing.T, fw *Framework, flowName string, cv oms.OID, project oms.OID) string {
	t.Helper()
	f, err := fw.Flow(flowName)
	if err != nil {
		t.Fatalf("Flow(%q): %v", flowName, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flows %v; flow %s:", fw.Flows(), f.Name)
	for _, name := range f.Activities() {
		a, err := f.Activity(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, " %+v->%v", a, f.Successors(name))
	}
	holder, held := fw.ReservedBy(cv)
	kids, err := fw.TypedChildren(cv, "layout")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := fw.SharedCells(project)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "; reserved %q %t; layout children %v; shared %v", holder, held, kids, shared)
	return b.String()
}

// TestReplicaAnswersFrameworkMetadata: on a Release 4.0 primary, a flow
// registered, a reservation taken, a typed edge and a share added after
// a replica attached reach the replica view through the feed, and the
// view answers Flow, ReservedBy, TypedChildren and SharedCells as the
// primary does — and still does after failover, with no
// re-registration. The same answers survive a differential and a full
// save.
func TestReplicaAnswersFrameworkMetadata(t *testing.T) {
	w := newWorld(t, Release40)
	fw := w.fw
	cell2, err := fw.CreateCell(w.project, "reg")
	if err != nil {
		t.Fatal(err)
	}
	cv2, err := fw.CreateCellVersion(cell2, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	team2, err := fw.CreateTeam("io-team")
	if err != nil {
		t.Fatal(err)
	}
	project2, err := fw.CreateProject("chip2", team2)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := backend.OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SaveTo(seg); err != nil { // the base the delta below extends
		t.Fatal(err)
	}
	rep, view := startReplicaOf(t, fw)
	catchUp(t, rep, fw)

	late := flow.New("late")
	for _, a := range []flow.Activity{
		{Name: "sketch", Tool: "fmcad-schematic", Creates: []string{"schematic"}},
		{Name: "check", Tool: "fmcad-dsim", Needs: []string{"schematic"}},
	} {
		if err := late.AddActivity(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := late.AddPrecedes("sketch", "check"); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RegisterFlow(late); err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.SubmitHierarchyTyped(w.cv, cv2, "layout"); err != nil {
		t.Fatal(err)
	}
	if err := fw.ShareCell(w.cell, project2); err != nil {
		t.Fatal(err)
	}
	want := metadataAnswers(t, fw, "late", w.cv, project2)

	catchUp(t, rep, fw)
	if got := metadataAnswers(t, view, "late", w.cv, project2); got != want {
		t.Fatalf("replica view answers\n%s\nprimary answers\n%s", got, want)
	}
	// Enactments are per-process session state: a replica refuses them
	// with the typed error, not a lookup miss.
	if _, err := view.ActivityState(w.cv, "schematic-entry"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("ActivityState on replica: %v, want ErrReadOnlyReplica", err)
	}

	// Differential save (the segment backend continues from the base),
	// then a full one through the file backend.
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	if m, err := backend.LoadManifest(seg); err != nil || len(m.Deltas) == 0 {
		t.Fatalf("second segment save was not differential: %+v, %v", m, err)
	}
	fromDelta, err := LoadFrom(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got := metadataAnswers(t, fromDelta, "late", w.cv, project2); got != want {
		t.Fatalf("after differential save answers\n%s\nwant\n%s", got, want)
	}
	dir := t.TempDir()
	if err := fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	fromFull, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := metadataAnswers(t, fromFull, "late", w.cv, project2); got != want {
		t.Fatalf("after full save answers\n%s\nwant\n%s", got, want)
	}

	// Failover: nothing is rebuilt or re-registered.
	_ = rep.Promote()
	if err := view.PromoteToPrimary(); err != nil {
		t.Fatal(err)
	}
	if got := metadataAnswers(t, view, "late", w.cv, project2); got != want {
		t.Fatalf("promoted view answers\n%s\nwant\n%s", got, want)
	}
	// The promoted primary enforces the replicated flow.
	if err := view.StartActivity("anna", w.cv, "simulate"); err == nil {
		t.Fatal("promoted primary started simulate before schematic-entry")
	}
	if err := view.StartActivity("anna", w.cv, "schematic-entry"); err != nil {
		t.Fatal(err)
	}
}
