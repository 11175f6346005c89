package jcf

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/itc"
	"repro/internal/oms"
	"repro/internal/oms/backend"
)

// Tests for ISSUE 4: the change feed's jcf consumers — the batched
// config/enact paths, the feed→itc notification bridge, and
// differential persistence on the segment backend.

// --- induced-failure atomicity of the newly batched paths -------------

// TestCreateConfigurationInducedFailureAtomic: a non-CellVersion target
// fails the configures link mid-batch; no Configuration and no
// ConfigVersion may survive. The old op-by-op path left a detached
// Configuration behind.
func TestCreateConfigurationInducedFailureAtomic(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	cfgCount := fw.store.Count("Configuration")
	verCount := fw.store.Count("ConfigVersion")
	if _, _, err := fw.CreateConfiguration(w.team, "golden"); err == nil {
		t.Fatal("configuration on a Team accepted")
	}
	if got := fw.store.Count("Configuration"); got != cfgCount {
		t.Fatalf("store grew %d orphan Configurations", got-cfgCount)
	}
	if got := fw.store.Count("ConfigVersion"); got != verCount {
		t.Fatalf("store grew %d orphan ConfigVersions", got-verCount)
	}
	// A good create right after works and numbers from 1.
	cfg, v1, err := fw.CreateConfiguration(w.cv, "golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.ConfigVersions(cfg); len(got) != 1 || got[0] != v1 {
		t.Fatalf("config versions = %v, want [%d]", got, v1)
	}
	if got := fw.store.GetInt(v1, "num"); got != 1 {
		t.Fatalf("initial config version num = %d", got)
	}
}

// TestDeriveConfigVersionInducedFailureAtomic: deriving from a version
// that already has a successor fails on the precedes link (ToCard One);
// the whole batch — version, ownership link, entry copies — must vanish.
func TestDeriveConfigVersionInducedFailureAtomic(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	cfg, v1, err := fw.CreateConfiguration(w.cv, "golden")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := fw.DeriveConfigVersion(v1)
	if err != nil {
		t.Fatal(err)
	}
	verCount := fw.store.Count("ConfigVersion")
	fp := fw.store.Count("") // total objects: the no-trace fingerprint
	if _, err := fw.DeriveConfigVersion(v1); err == nil {
		t.Fatal("second derive from v1 accepted (v1 already has a successor)")
	}
	if got := fw.store.Count("ConfigVersion"); got != verCount {
		t.Fatalf("losing derive left %d orphan ConfigVersions", got-verCount)
	}
	if got := fw.store.Count(""); got != fp {
		t.Fatalf("losing derive changed object count by %d", got-fp)
	}
	if got := fw.ConfigVersions(cfg); len(got) != 2 {
		t.Fatalf("config has %d versions, want 2", len(got))
	}
	// Deriving from the tip still works and copies entries atomically.
	v3, err := fw.DeriveConfigVersion(v2)
	if err != nil {
		t.Fatal(err)
	}
	if fw.store.GetInt(v3, "num") != fw.store.GetInt(v2, "num")+1 {
		t.Fatal("derived numbering broken")
	}
}

// TestRecordExecInducedFailureAtomicAndSurfaced: the exec-version
// create+link batch against a dead variant must fail loudly (the old
// path discarded the link error) and strand nothing.
func TestRecordExecInducedFailureAtomicAndSurfaced(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	if _, err := applyOne(fw.store, func(b *oms.Batch) { b.Delete(v1) }); err != nil {
		t.Fatal(err)
	}
	execCount := fw.store.Count("ActiveExecVersion")
	if err := fw.recordExecOn(v1, "entry", "running:anna"); err == nil {
		t.Fatal("recording execution on a deleted variant succeeded silently")
	}
	if got := fw.store.Count("ActiveExecVersion"); got != execCount {
		t.Fatalf("failed exec recording stranded %d ActiveExecVersions", got-execCount)
	}
}

// TestExecutionHistoryStillRecorded: the batched path keeps the
// queryable execution history intact end to end.
func TestExecutionHistoryStillRecorded(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.StartActivity("anna", w.cv, "schematic-entry"); err != nil {
		t.Fatal(err)
	}
	if err := fw.FinishActivity("anna", w.cv, "schematic-entry", true); err != nil {
		t.Fatal(err)
	}
	hist := fw.ExecutionHistory(w.cv)
	if len(hist) != 2 || hist[0] != "schematic-entry/running:anna" || hist[1] != "schematic-entry/done" {
		t.Fatalf("execution history = %v", hist)
	}
}

// --- the feed→itc notification bridge ---------------------------------

// busRecorder collects messages of one topic.
type busRecorder struct {
	mu   sync.Mutex
	msgs []itc.Message
}

func (r *busRecorder) handler(m itc.Message) error {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
	return nil
}

func (r *busRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *busRecorder) get(i int) itc.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msgs[i]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNotifierPublishesFrameworkEvents: reservation, checkin, variant
// derivation and publish all reach the bus, in commit order, sourced
// from the feed rather than from the call sites.
func TestNotifierPublishesFrameworkEvents(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	bus := itc.NewBus()
	recs := map[string]*busRecorder{}
	for _, topic := range []string{TopicCheckin, TopicPublish, TopicReservation, TopicVariant} {
		r := &busRecorder{}
		recs[topic] = r
		bus.Subscribe(topic, "test-tool", r.handler)
	}
	n, err := fw.StartNotifier(bus)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
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
	v2, err := fw.DeriveVariant(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "reservation events", func() bool { return recs[TopicReservation].count() >= 2 })
	waitFor(t, "checkin event", func() bool { return recs[TopicCheckin].count() >= 1 })
	waitFor(t, "variant event", func() bool { return recs[TopicVariant].count() >= 1 })
	waitFor(t, "publish event", func() bool { return recs[TopicPublish].count() >= 1 })

	res := recs[TopicReservation].get(0)
	if res.Fields["user"] != "anna" || res.Fields["action"] != "reserved" ||
		res.Fields["cv"] != fmt.Sprint(w.cv) {
		t.Fatalf("reservation event = %+v", res.Fields)
	}
	rel := recs[TopicReservation].get(1)
	if rel.Fields["action"] != "released" || rel.Fields["user"] != "" {
		t.Fatalf("release event = %+v", rel.Fields)
	}
	ci := recs[TopicCheckin].get(0)
	if ci.Fields["dov"] != fmt.Sprint(dov) || ci.Fields["do"] != fmt.Sprint(do) {
		t.Fatalf("checkin event = %+v", ci.Fields)
	}
	va := recs[TopicVariant].get(0)
	if va.Fields["variant"] != fmt.Sprint(v2) || va.Fields["from"] != fmt.Sprint(v1) ||
		va.Fields["cv"] != fmt.Sprint(w.cv) {
		t.Fatalf("variant event = %+v", va.Fields)
	}
	pub := recs[TopicPublish].get(0)
	if pub.Fields["cv"] != fmt.Sprint(w.cv) {
		t.Fatalf("publish event = %+v", pub.Fields)
	}
	// The original variant created during cell-version setup is not a
	// derivation — exactly one variant event.
	if got := recs[TopicVariant].count(); got != 1 {
		t.Fatalf("%d variant derivation events, want 1", got)
	}
}

// --- differential persistence on the segment backend ------------------

// populate runs some designer traffic so saves have something to write.
func populate(t *testing.T, fw *Framework, w *world, tag string, n int) {
	t.Helper()
	v1 := fw.Variants(w.cv)[0]
	src := filepath.Join(t.TempDir(), "d.dat")
	if err := os.WriteFile(src, []byte("design-"+tag), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		do, err := fw.CreateDesignObject(v1, fmt.Sprintf("do-%s-%d", tag, i), w.schVT)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.CheckInData("anna", do, src); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialSaveRoundTrip: full base, then two differential
// commits; the manifest chains deltas, payload bytes shrink, and Load
// replays the chain to the exact live state.
func TestDifferentialSaveRoundTrip(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	seg, err := backend.OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	populate(t, fw, w, "base", 8)
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	m1, err := backend.LoadManifest(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Deltas) != 0 || m1.BaseEpoch != m1.Epoch || m1.FeedLSN == 0 {
		t.Fatalf("first save not a clean base: %+v", m1)
	}
	basePayload, err := seg.Get(m1.OMS)
	if err != nil {
		t.Fatal(err)
	}

	populate(t, fw, w, "delta1", 2)
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	populate(t, fw, w, "delta2", 2)
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	m3, err := backend.LoadManifest(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m3.Deltas) != 2 {
		t.Fatalf("manifest chains %d deltas, want 2: %+v", len(m3.Deltas), m3)
	}
	if m3.OMS != m1.OMS || m3.BaseEpoch != m1.Epoch {
		t.Fatalf("differential commit rewrote the base: %+v", m3)
	}
	if m3.Deltas[0].FromLSN != m1.FeedLSN || m3.Deltas[1].FromLSN != m3.Deltas[0].ToLSN {
		t.Fatalf("delta chain not contiguous: %+v", m3.Deltas)
	}
	for _, d := range m3.Deltas {
		payload, err := seg.Get(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) >= len(basePayload) {
			t.Fatalf("delta %s (%d bytes) not smaller than base (%d bytes)",
				d.Name, len(payload), len(basePayload))
		}
	}

	ld, err := LoadFrom(seg)
	if err != nil {
		t.Fatal(err)
	}
	if holder, held := ld.ReservedBy(w.cv); !held || holder != "anna" {
		t.Fatal("reservation lost through differential load")
	}
	if got, want := ld.store.Count("DesignObjectVersion"), fw.store.Count("DesignObjectVersion"); got != want {
		t.Fatalf("restored %d versions, want %d", got, want)
	}
	// Byte-level equivalence of the restored database.
	liveSnap := fw.store.Snapshot().Encode()
	loadedSnap := ld.store.Snapshot().Encode()
	if string(liveSnap) != string(loadedSnap) {
		t.Fatal("differential load diverges from live store")
	}
}

// TestDifferentialSaveCompaction: once the chain reaches the compaction
// bound, the save writes an overlay over the full base and empties the
// chain; a new full base comes once the overlays would reach the base's
// size, and a loaded framework (no anchor) always starts with a full
// base.
func TestDifferentialSaveCompaction(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	fw.maxDeltaChain = 2
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	seg, err := backend.OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	save := func(tag string, n int) backend.Manifest {
		t.Helper()
		populate(t, fw, w, tag, n)
		if err := fw.SaveTo(seg); err != nil {
			t.Fatal(err)
		}
		m, err := backend.LoadManifest(seg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for i := 0; i < 3; i++ {
		save(fmt.Sprintf("e%d", i), 1)
	}
	// Epochs: 1 full, 2 delta, 3 delta (chain=2), 4 an overlay on 1.
	m := save("e3", 1)
	if m.Epoch != 4 || m.BaseEpoch != 1 || m.Overlay != "oms@4" || m.OverlayLSN != m.FeedLSN || len(m.Deltas) != 0 {
		t.Fatalf("no overlay after chain bound: %+v", m)
	}
	// Epochs 5 and 6 are deltas from the overlay's cut; epoch 7's
	// overlay would hold far more than the base, so it is a full base.
	if m = save("e4", 1); len(m.Deltas) != 1 || m.Deltas[0].FromLSN != m.OverlayLSN {
		t.Fatalf("delta does not start at the overlay's cut: %+v", m)
	}
	save("e5", 1)
	if m = save("big", 40); m.Epoch != 7 || m.BaseEpoch != 7 || m.Overlay != "" || len(m.Deltas) != 0 {
		t.Fatalf("overlay budget did not force a full base: %+v", m)
	}
	ld, err := LoadFrom(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	m8, err := backend.LoadManifest(seg)
	if err != nil {
		t.Fatal(err)
	}
	if m8.BaseEpoch != 8 || m8.Overlay != "" || len(m8.Deltas) != 0 {
		t.Fatalf("loaded framework did not fall back to a full base: %+v", m8)
	}
	if _, err := LoadFrom(seg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialSaveCrashConsistencyUnderLoad is the segment-backend
// sibling of TestSaveCrashConsistencyUnderLoad: differential saves loop
// against concurrent designers, with a chain bound of 2 so that overlays
// are cut while designers commit too, and every committed manifest must
// load with every reservation naming a registered user. Run under -race
// by `make stress-feed`.
func TestDifferentialSaveCrashConsistencyUnderLoad(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	fw.maxDeltaChain = 2
	const designers = 4
	for d := 0; d < designers; d++ {
		name := fmt.Sprintf("designer%d", d)
		uid, err := fw.CreateUser(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.AddMember(w.team, uid); err != nil {
			t.Fatal(err)
		}
	}
	var stopFlag chanStop
	var wg sync.WaitGroup
	for d := 0; d < designers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			user := fmt.Sprintf("designer%d", d)
			for i := 0; !stopFlag.stopped(); i++ {
				cell, err := fw.CreateCell(w.project, fmt.Sprintf("dc-%d-%d", d, i))
				if err != nil {
					t.Errorf("designer %d: %v", d, err)
					return
				}
				cv, err := fw.CreateCellVersion(cell, "asic", w.team)
				if err != nil {
					t.Errorf("designer %d: %v", d, err)
					return
				}
				if err := fw.Reserve(user, cv); err != nil {
					t.Errorf("designer %d: %v", d, err)
					return
				}
				if err := fw.Publish(user, cv); err != nil {
					t.Errorf("designer %d: %v", d, err)
					return
				}
			}
		}(d)
	}
	seg, err := backend.OpenSegment(t.TempDir())
	if err != nil {
		stopFlag.stop()
		wg.Wait()
		t.Fatal(err)
	}
	const saves = 8
	for i := 0; i < saves; i++ {
		if err := fw.SaveTo(seg); err != nil {
			stopFlag.stop()
			wg.Wait()
			t.Fatalf("save %d: %v", i, err)
		}
		ld, err := LoadFrom(seg)
		if err != nil {
			stopFlag.stop()
			wg.Wait()
			t.Fatalf("load of save %d: %v", i, err)
		}
		if err := checkReservations(ld); err != nil {
			stopFlag.stop()
			wg.Wait()
			t.Fatalf("save %d: %v", i, err)
		}
	}
	m, err := backend.LoadManifest(seg)
	if err == nil && len(m.Deltas) == 0 && m.Epoch > 1 {
		t.Log("note: no differential commit happened (designers may have outrun the ring)")
	}
	stopFlag.stop()
	wg.Wait()
}

// chanStop is a tiny stop flag (sync/atomic-free test helper).
type chanStop struct {
	mu sync.Mutex
	s  bool
}

func (c *chanStop) stop()         { c.mu.Lock(); c.s = true; c.mu.Unlock() }
func (c *chanStop) stopped() bool { c.mu.Lock(); defer c.mu.Unlock(); return c.s }
