package jcf

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flow"
	"repro/internal/oms"
)

// testFlow builds the three-activity encapsulation flow of section 2.4.
func testFlow(t *testing.T) *flow.Flow {
	t.Helper()
	f := flow.New("asic")
	for _, a := range []flow.Activity{
		{Name: "schematic-entry", Tool: "fmcad-schematic", Creates: []string{"schematic"}},
		{Name: "simulate", Tool: "fmcad-dsim", Needs: []string{"schematic"}},
		{Name: "layout-entry", Tool: "fmcad-layout", Needs: []string{"schematic"}, Creates: []string{"layout"}},
	} {
		if err := f.AddActivity(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddPrecedes("schematic-entry", "simulate"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPrecedes("simulate", "layout-entry"); err != nil {
		t.Fatal(err)
	}
	return f
}

// world is a ready-to-use framework with users, a team, a project, a cell
// and one cell version.
type world struct {
	fw      *Framework
	team    oms.OID
	project oms.OID
	cell    oms.OID
	cv      oms.OID
	schVT   oms.OID
	layVT   oms.OID
}

// applyOne commits the op that stage puts in a fresh batch: a test's
// direct write to the store, bypassing the framework's entry points.
func applyOne(st *oms.Store, stage func(b *oms.Batch)) ([]oms.OID, error) {
	b := oms.NewBatch()
	stage(b)
	return st.Apply(b)
}

func newWorld(t *testing.T, release Release) *world {
	t.Helper()
	fw, err := New(release)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"anna", "bert", "carl"} {
		if _, err := fw.CreateUser(u); err != nil {
			t.Fatal(err)
		}
	}
	team, err := fw.CreateTeam("vlsi")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"anna", "bert"} {
		uid, err := fw.User(u)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.AddMember(team, uid); err != nil {
			t.Fatal(err)
		}
	}
	for _, tool := range []string{"fmcad-schematic", "fmcad-dsim", "fmcad-layout"} {
		if _, err := fw.CreateTool(tool); err != nil {
			t.Fatal(err)
		}
	}
	schVT, err := fw.CreateViewType("schematic")
	if err != nil {
		t.Fatal(err)
	}
	layVT, err := fw.CreateViewType("layout")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RegisterFlow(testFlow(t)); err != nil {
		t.Fatal(err)
	}
	project, err := fw.CreateProject("chip1", team)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := fw.CreateCell(project, "alu")
	if err != nil {
		t.Fatal(err)
	}
	cv, err := fw.CreateCellVersion(cell, "asic", team)
	if err != nil {
		t.Fatal(err)
	}
	return &world{fw: fw, team: team, project: project, cell: cell, cv: cv, schVT: schVT, layVT: layVT}
}

func TestReleaseString(t *testing.T) {
	if Release30.String() != "3.0" || Release40.String() != "4.0" {
		t.Fatal("release strings")
	}
	if Release(7).String() == "" {
		t.Fatal("unknown release string")
	}
	if _, err := New(Release(7)); err == nil {
		t.Fatal("unknown release accepted")
	}
}

func TestResources(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if _, err := fw.CreateUser("anna"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate user: %v", err)
	}
	if _, err := fw.CreateUser(""); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := fw.User("nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing user found")
	}
	uid, err := fw.User("anna")
	if err != nil {
		t.Fatal(err)
	}
	if !fw.IsMember(w.team, uid) {
		t.Fatal("anna not member")
	}
	carl, _ := fw.User("carl")
	if fw.IsMember(w.team, carl) {
		t.Fatal("carl is member")
	}
	if got := fw.Members(w.team); len(got) != 2 || got[0] != "anna" || got[1] != "bert" {
		t.Fatalf("Members = %v", got)
	}
	if got := fw.Flows(); len(got) != 1 || got[0] != "asic" {
		t.Fatalf("Flows = %v", got)
	}
	if _, err := fw.Flow("asic"); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Flow("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing flow found")
	}
	// Registering the same flow name again fails.
	if _, err := fw.RegisterFlow(testFlow(t)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate flow: %v", err)
	}
}

func TestProjectStructure(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if _, err := fw.CreateCell(w.project, "alu"); !errors.Is(err, ErrExists) {
		t.Fatal("duplicate cell accepted")
	}
	if _, err := fw.CreateCell(w.project, ""); err == nil {
		t.Fatal("empty cell accepted")
	}
	if got := fw.Cells(w.project); len(got) != 1 || got[0] != "alu" {
		t.Fatalf("Cells = %v", got)
	}
	c, err := fw.Cell(w.project, "alu")
	if err != nil || c != w.cell {
		t.Fatalf("Cell = %d, %v", c, err)
	}
	if _, err := fw.Cell(w.project, "mul"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing cell found")
	}
	if fw.CellName(w.cell) != "alu" {
		t.Fatal("CellName")
	}
	if p, err := fw.Project("chip1"); err != nil || p != w.project {
		t.Fatal("Project lookup")
	}

	// Cell versions number automatically and carry flow/team.
	if fw.CellVersionNum(w.cv) != 1 {
		t.Fatalf("num = %d", fw.CellVersionNum(w.cv))
	}
	cv2, err := fw.CreateCellVersion(w.cell, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	if fw.CellVersionNum(cv2) != 2 {
		t.Fatalf("second num = %d", fw.CellVersionNum(cv2))
	}
	if got := fw.CellVersions(w.cell); len(got) != 2 || got[0] != w.cv {
		t.Fatalf("CellVersions = %v", got)
	}
	if cell, err := fw.CellOf(w.cv); err != nil || cell != w.cell {
		t.Fatal("CellOf")
	}
	fn, err := fw.AttachedFlowName(w.cv)
	if err != nil || fn != "asic" {
		t.Fatalf("AttachedFlowName = %q, %v", fn, err)
	}
	team, err := fw.AttachedTeam(w.cv)
	if err != nil || team != w.team {
		t.Fatal("AttachedTeam")
	}
	if _, err := fw.CreateCellVersion(w.cell, "missing-flow", w.team); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing flow accepted")
	}
}

func TestVariants(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	vs := fw.Variants(w.cv)
	if len(vs) != 1 || fw.VariantNum(vs[0]) != 1 {
		t.Fatalf("initial variants = %v", vs)
	}
	v2, err := fw.DeriveVariant(vs[0])
	if err != nil {
		t.Fatal(err)
	}
	if fw.VariantNum(v2) != 2 {
		t.Fatalf("v2 num = %d", fw.VariantNum(v2))
	}
	if got := fw.VariantSuccessors(vs[0]); len(got) != 1 || got[0] != v2 {
		t.Fatalf("precedes relation = %v", got)
	}
	if got := fw.VariantSuccessors(v2); len(got) != 0 {
		t.Fatal("v2 has successor")
	}
	if fw.VariantPredecessor(v2) != vs[0] {
		t.Fatal("predecessor missing")
	}
	if fw.VariantPredecessor(vs[0]) != oms.InvalidOID {
		t.Fatal("original variant has predecessor")
	}
	if _, err := fw.DeriveVariant(oms.OID(99999)); !errors.Is(err, ErrNotFound) {
		t.Fatal("derive of missing variant")
	}
	// Design objects are shared into derived variants.
	do, err := fw.CreateDesignObject(vs[0], "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := fw.DeriveVariant(v2)
	if err != nil {
		t.Fatal(err)
	}
	_ = v3
	// v2 had no design objects (do was added to v1 after v2 derived), so
	// check sharing through a fresh derivation from v1.
	v4, err := fw.DeriveVariant(vs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.DesignObjects(v4); len(got) != 1 || got[0] != do {
		t.Fatalf("shared design objects = %v", got)
	}
}

func TestDesignObjectsAndData(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.CreateDesignObject(v1, "", w.schVT); err == nil {
		t.Fatal("empty design object accepted")
	}
	if fw.DesignObjectName(do) != "alu-sch" {
		t.Fatal("DesignObjectName")
	}
	if vt, err := fw.ViewTypeOf(do); err != nil || vt != "schematic" {
		t.Fatalf("ViewTypeOf = %q, %v", vt, err)
	}
	if _, err := fw.ViewTypeOf(w.cv); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ViewTypeOf on an object without an ofViewType link = %v, want ErrNotFound", err)
	}
	if got, err := fw.DesignObjectByName(v1, "alu-sch"); err != nil || got != do {
		t.Fatal("DesignObjectByName")
	}
	if _, err := fw.DesignObjectByName(v1, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing DO found")
	}

	dir := t.TempDir()
	src := filepath.Join(dir, "alu.sch")
	if err := os.WriteFile(src, []byte("cell alu\nwire w1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Check-in without reservation is rejected.
	if _, err := fw.CheckInData("anna", do, src); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("unreserved check-in: %v", err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	dov, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	if fw.VersionNum(dov) != 1 {
		t.Fatalf("version num = %d", fw.VersionNum(dov))
	}
	if fw.LatestVersion(do) != dov {
		t.Fatal("LatestVersion")
	}
	size, err := fw.DataSize(dov)
	if err != nil || size != 17 {
		t.Fatalf("DataSize = %d, %v", size, err)
	}

	// Second check-in records automatic derivation.
	dov2, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.DerivedFrom(dov2); len(got) != 1 || got[0] != dov {
		t.Fatalf("DerivedFrom = %v", got)
	}
	if got := fw.Derivatives(dov); len(got) != 1 || got[0] != dov2 {
		t.Fatalf("Derivatives = %v", got)
	}

	// Copy-out: reservation holder may read; outsiders may not before
	// publication.
	dst := filepath.Join(dir, "out.sch")
	if err := fw.CheckOutData("anna", dov, dst); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dst)
	if err != nil || string(data) != "cell alu\nwire w1\n" {
		t.Fatalf("copy-out content %q, %v", data, err)
	}
	if err := fw.CheckOutData("bert", dov, dst); !errors.Is(err, ErrNotPublished) {
		t.Fatalf("unpublished read by bert: %v", err)
	}
	if err := fw.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.CheckOutData("bert", dov, dst); err != nil {
		t.Fatalf("published read by bert: %v", err)
	}
	// Blob traffic accounted.
	in, out := fw.BlobTraffic()
	if in == 0 || out == 0 {
		t.Fatalf("BlobTraffic = %d, %d", in, out)
	}
	if fw.MetadataOps() == 0 {
		t.Fatal("MetadataOps = 0")
	}
}

func TestWorkspaceSemantics(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	// carl is not a team member.
	if err := fw.Reserve("carl", w.cv); !errors.Is(err, ErrNotMember) {
		t.Fatalf("non-member reserve: %v", err)
	}
	if err := fw.Reserve("nobody", w.cv); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown user reserve: %v", err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if holder, held := fw.ReservedBy(w.cv); !held || holder != "anna" {
		t.Fatalf("ReservedBy = %q,%t", holder, held)
	}
	// Second reservation rejected — including by the holder.
	if err := fw.Reserve("bert", w.cv); !errors.Is(err, ErrReserved) {
		t.Fatalf("double reserve: %v", err)
	}
	if err := fw.Reserve("anna", w.cv); !errors.Is(err, ErrReserved) {
		t.Fatalf("self re-reserve: %v", err)
	}
	if fw.ReserveConflicts() != 2 {
		t.Fatalf("ReserveConflicts = %d", fw.ReserveConflicts())
	}
	if !fw.CanWrite("anna", w.cv) || fw.CanWrite("bert", w.cv) {
		t.Fatal("CanWrite wrong")
	}
	if !fw.CanRead("anna", w.cv) || fw.CanRead("bert", w.cv) {
		t.Fatal("CanRead wrong before publish")
	}
	// Publish by non-holder rejected.
	if err := fw.Publish("bert", w.cv); !errors.Is(err, ErrNotReserved) {
		t.Fatal("foreign publish")
	}
	if err := fw.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if !fw.Published(w.cv) {
		t.Fatal("not published")
	}
	if _, held := fw.ReservedBy(w.cv); held {
		t.Fatal("still reserved after publish")
	}
	if !fw.CanRead("bert", w.cv) {
		t.Fatal("bert cannot read published")
	}
	// After publication bert can reserve and work.
	if err := fw.Reserve("bert", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.ReleaseReservation("anna", w.cv); !errors.Is(err, ErrNotReserved) {
		t.Fatal("foreign release")
	}
	if err := fw.ReleaseReservation("bert", w.cv); err != nil {
		t.Fatal(err)
	}
}

func TestParallelWorkOnDisjointCells(t *testing.T) {
	// The section 3.1 claim: "If IC designs are composed of several JCF
	// cells, the standard multi user capabilities of JCF can also be
	// used": two users on different cells never conflict.
	w := newWorld(t, Release30)
	fw := w.fw
	cell2, err := fw.CreateCell(w.project, "mul")
	if err != nil {
		t.Fatal(err)
	}
	cv2, err := fw.CreateCellVersion(cell2, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("bert", cv2); err != nil {
		t.Fatalf("disjoint reserve conflicted: %v", err)
	}
	if fw.ReserveConflicts() != 0 {
		t.Fatalf("conflicts = %d", fw.ReserveConflicts())
	}
}

func TestFlowEnforcementThroughFramework(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if err := fw.StartActivity("anna", w.cv, "schematic-entry"); !errors.Is(err, ErrNotReserved) {
		t.Fatal("activity without reservation")
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	// Out of order.
	if err := fw.StartActivity("anna", w.cv, "layout-entry"); !errors.Is(err, flow.ErrOrder) {
		t.Fatalf("out-of-order start: %v", err)
	}
	startable, err := fw.StartableActivities(w.cv)
	if err != nil || len(startable) != 1 || startable[0] != "schematic-entry" {
		t.Fatalf("Startable = %v, %v", startable, err)
	}
	if err := fw.StartActivity("anna", w.cv, "schematic-entry"); err != nil {
		t.Fatal(err)
	}
	if s, _ := fw.ActivityState(w.cv, "schematic-entry"); s != flow.Running {
		t.Fatalf("state = %s", s)
	}
	if err := fw.FinishActivity("anna", w.cv, "schematic-entry", true); err != nil {
		t.Fatal(err)
	}
	if err := fw.StartActivity("anna", w.cv, "simulate"); err != nil {
		t.Fatal(err)
	}
	if err := fw.FinishActivity("anna", w.cv, "simulate", true); err != nil {
		t.Fatal(err)
	}
	if err := fw.StartActivity("anna", w.cv, "layout-entry"); err != nil {
		t.Fatal(err)
	}
	if err := fw.FinishActivity("anna", w.cv, "layout-entry", true); err != nil {
		t.Fatal(err)
	}
	done, err := fw.FlowComplete(w.cv)
	if err != nil || !done {
		t.Fatalf("FlowComplete = %t, %v", done, err)
	}
	rej, err := fw.FlowRejections(w.cv)
	if err != nil || rej != 1 {
		t.Fatalf("FlowRejections = %d, %v", rej, err)
	}
	// The execution history was materialized in the database: one
	// running + one outcome entry per executed activity.
	hist := fw.ExecutionHistory(w.cv)
	if len(hist) != 6 {
		t.Fatalf("ExecutionHistory = %v", hist)
	}
	if hist[0] != "schematic-entry/running:anna" || hist[1] != "schematic-entry/done" {
		t.Fatalf("history head = %v", hist[:2])
	}
	if hist[5] != "layout-entry/done" {
		t.Fatalf("history tail = %v", hist)
	}
}

func TestExecutionHistoryRecordsFailures(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.StartActivity("anna", w.cv, "schematic-entry"); err != nil {
		t.Fatal(err)
	}
	if err := fw.FinishActivity("anna", w.cv, "schematic-entry", false); err != nil {
		t.Fatal(err)
	}
	hist := fw.ExecutionHistory(w.cv)
	if len(hist) != 2 || hist[1] != "schematic-entry/failed" {
		t.Fatalf("history = %v", hist)
	}
	// Rejected starts leave no execution entry.
	if err := fw.StartActivity("anna", w.cv, "layout-entry"); err == nil {
		t.Fatal("out-of-order start accepted")
	}
	if got := fw.ExecutionHistory(w.cv); len(got) != 2 {
		t.Fatalf("rejected start recorded: %v", got)
	}
	// Empty history for a fresh version.
	cell2, _ := fw.CreateCell(w.project, "fresh")
	cv2, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	if got := fw.ExecutionHistory(cv2); len(got) != 0 {
		t.Fatalf("fresh history = %v", got)
	}
}

func TestHierarchyDesktopSubmission(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	cell2, _ := fw.CreateCell(w.project, "reg")
	cv2, err := fw.CreateCellVersion(cell2, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SubmitHierarchy(w.cv, cv2); err != nil {
		t.Fatal(err)
	}
	if got := fw.Children(w.cv); len(got) != 1 || got[0] != cv2 {
		t.Fatalf("Children = %v", got)
	}
	if got := fw.Parents(cv2); len(got) != 1 || got[0] != w.cv {
		t.Fatalf("Parents = %v", got)
	}
	if got := fw.HierarchyClosure(w.cv); len(got) != 1 {
		t.Fatalf("closure = %v", got)
	}
	// Cycles rejected.
	if err := fw.SubmitHierarchy(cv2, w.cv); err == nil {
		t.Fatal("cycle accepted")
	}
	if err := fw.SubmitHierarchy(w.cv, w.cv); err == nil {
		t.Fatal("self-containment accepted")
	}
}

func TestRelease30Restrictions(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	cell2, _ := fw.CreateCell(w.project, "reg")
	cv2, _ := fw.CreateCellVersion(cell2, "asic", w.team)

	if fw.ProceduralHierarchyInterface() {
		t.Fatal("3.0 has procedural interface")
	}
	if err := fw.SubmitHierarchyProcedural(w.cv, cv2); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("procedural on 3.0: %v", err)
	}
	if err := fw.SubmitHierarchyTyped(w.cv, cv2, "layout"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("typed hierarchy on 3.0: %v", err)
	}
	if _, err := fw.TypedChildren(w.cv, "layout"); !errors.Is(err, ErrUnsupported) {
		t.Fatal("typed children on 3.0")
	}
	if err := fw.ShareCell(cell2, w.project); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("sharing on 3.0: %v", err)
	}
	if _, err := fw.SharedCells(w.project); !errors.Is(err, ErrUnsupported) {
		t.Fatal("shared cells on 3.0")
	}
}

func TestRelease40Features(t *testing.T) {
	w := newWorld(t, Release40)
	fw := w.fw
	cell2, _ := fw.CreateCell(w.project, "reg")
	cv2, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	cell3, _ := fw.CreateCell(w.project, "pad")
	cv3, _ := fw.CreateCellVersion(cell3, "asic", w.team)

	if !fw.ProceduralHierarchyInterface() {
		t.Fatal("4.0 lacks procedural interface")
	}
	if err := fw.SubmitHierarchyProcedural(w.cv, cv2); err != nil {
		t.Fatal(err)
	}
	// Non-isomorphic: schematic contains reg only; layout contains reg+pad.
	if err := fw.SubmitHierarchyTyped(w.cv, cv2, "schematic"); err != nil {
		t.Fatal(err)
	}
	if err := fw.SubmitHierarchyTyped(w.cv, cv2, "layout"); err != nil {
		t.Fatal(err)
	}
	if err := fw.SubmitHierarchyTyped(w.cv, cv3, "layout"); err != nil {
		t.Fatal(err)
	}
	sch, err := fw.TypedChildren(w.cv, "schematic")
	if err != nil || len(sch) != 1 {
		t.Fatalf("schematic children = %v, %v", sch, err)
	}
	lay, err := fw.TypedChildren(w.cv, "layout")
	if err != nil || len(lay) != 2 {
		t.Fatalf("layout children = %v, %v", lay, err)
	}
	// Idempotent typed submit.
	if err := fw.SubmitHierarchyTyped(w.cv, cv2, "layout"); err != nil {
		t.Fatal(err)
	}
	lay, _ = fw.TypedChildren(w.cv, "layout")
	if len(lay) != 2 {
		t.Fatal("idempotence broken")
	}
	// Typed cycle rejected.
	if err := fw.SubmitHierarchyTyped(cv2, w.cv, "layout"); err == nil {
		t.Fatal("typed cycle accepted")
	}
	if err := fw.SubmitHierarchyTyped(w.cv, w.cv, "layout"); err == nil {
		t.Fatal("typed self accepted")
	}

	// Inter-project sharing.
	team2, _ := fw.CreateTeam("io-team")
	project2, err := fw.CreateProject("chip2", team2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.ShareCell(w.cell, project2); err != nil {
		t.Fatal(err)
	}
	lsn := fw.store.FeedLSN()
	if err := fw.ShareCell(w.cell, project2); err != nil {
		t.Fatal(err) // idempotent
	}
	// A repeated share or membership is a one-op batch that changes
	// nothing, so it publishes nothing.
	anna, err := fw.User("anna")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.AddMember(w.team, anna); err != nil {
		t.Fatal(err)
	}
	if got := fw.store.FeedLSN(); got != lsn {
		t.Fatalf("repeated ShareCell and AddMember moved FeedLSN %d -> %d", lsn, got)
	}
	shared, err := fw.SharedCells(project2)
	if err != nil || len(shared) != 1 || shared[0] != w.cell {
		t.Fatalf("SharedCells = %v, %v", shared, err)
	}
	if err := fw.ShareCell(w.cell, w.project); err == nil {
		t.Fatal("sharing into own project accepted")
	}
	if err := fw.ShareCell(oms.OID(99999), project2); !errors.Is(err, ErrNotFound) {
		t.Fatal("sharing missing cell")
	}
}

func TestConfigurations(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	do, _ := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "f.sch")
	if err := os.WriteFile(src, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dov1, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	dov2, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}

	cfg, cfgV1, err := fw.CreateConfiguration(w.cv, "golden")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fw.CreateConfiguration(w.cv, ""); err == nil {
		t.Fatal("empty config name accepted")
	}
	if err := fw.AddConfigEntry(cfgV1, dov1); err != nil {
		t.Fatal(err)
	}
	if got := fw.ConfigEntries(cfgV1); len(got) != 1 || got[0] != dov1 {
		t.Fatalf("entries = %v", got)
	}
	// Rebinding the same design object replaces the entry — max one
	// version per design object.
	if err := fw.AddConfigEntry(cfgV1, dov2); err != nil {
		t.Fatal(err)
	}
	if got := fw.ConfigEntries(cfgV1); len(got) != 1 || got[0] != dov2 {
		t.Fatalf("entries after rebind = %v", got)
	}
	// Deriving a config version copies entries and records precedes.
	cfgV2, err := fw.DeriveConfigVersion(cfgV1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.ConfigEntries(cfgV2); len(got) != 1 || got[0] != dov2 {
		t.Fatalf("derived entries = %v", got)
	}
	if got := fw.ConfigVersions(cfg); len(got) != 2 {
		t.Fatalf("config versions = %v", got)
	}
	if got := fw.ConfigurationsOf(w.cv); len(got) != 1 || got[0] != cfg {
		t.Fatalf("ConfigurationsOf = %v", got)
	}
	if _, err := fw.DeriveConfigVersion(oms.OID(99999)); !errors.Is(err, ErrNotFound) {
		t.Fatal("derive of missing config version")
	}
}

func TestDerivationAndEquivalence(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	sch, _ := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
	lay, _ := fw.CreateDesignObject(v1, "alu-lay", w.layVT)
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(src, []byte("d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	schV, _ := fw.CheckInData("anna", sch, src)
	layV, _ := fw.CheckInData("anna", lay, src)

	// The cross-tool derivation the encapsulation records (section 2.4).
	if err := fw.RecordDerivation(schV, layV); err != nil {
		t.Fatal(err)
	}
	if err := fw.RecordEquivalence(schV, layV); err != nil {
		t.Fatal(err)
	}
	if got := fw.DerivationClosure(schV); len(got) != 1 || got[0] != layV {
		t.Fatalf("closure = %v", got)
	}
	if got := fw.EquivalentTo(schV); len(got) != 1 || got[0] != layV {
		t.Fatalf("equivalent = %v", got)
	}
	if got := fw.EquivalentTo(layV); len(got) != 1 || got[0] != schV {
		t.Fatalf("equivalent reverse = %v", got)
	}
	// Transitive closure.
	layV2, _ := fw.CheckInData("anna", lay, src)
	if got := fw.DerivationClosure(schV); len(got) != 2 {
		t.Fatalf("transitive closure = %v (want layV, layV2=%d)", got, layV2)
	}
}

func TestCheckConsistency(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if probs := fw.CheckConsistency(); len(probs) != 0 {
		t.Fatalf("fresh world inconsistent: %v", probs)
	}
	// Build hierarchy alu(v1) -> reg(v1), then publish a newer reg v2:
	// the hierarchy entry goes stale and the check reports it.
	cell2, _ := fw.CreateCell(w.project, "reg")
	regV1, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	if err := fw.SubmitHierarchy(w.cv, regV1); err != nil {
		t.Fatal(err)
	}
	regV2, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	if err := fw.Reserve("anna", regV2); err != nil {
		t.Fatal(err)
	}
	if err := fw.Publish("anna", regV2); err != nil {
		t.Fatal(err)
	}
	probs := fw.CheckConsistency()
	if len(probs) != 1 || probs[0].Kind != "stale-hierarchy" {
		t.Fatalf("consistency = %+v", probs)
	}
}

func TestDesktopSummary(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	s, err := fw.DesktopSummary(w.project)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Project chip1", "cell alu", "v1", "reserved by anna", "variant 1"} {
		if !contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if _, err := fw.DesktopSummary(oms.OID(99999)); err == nil {
		t.Fatal("summary of missing project")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
