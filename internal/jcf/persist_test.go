package jcf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/oms/backend"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw

	// Populate: reservation, hierarchy, design data, flow progress.
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "d.sch")
	if err := os.WriteFile(src, []byte("schematic alu\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dov, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	cell2, _ := fw.CreateCell(w.project, "reg")
	cv2, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	if err := fw.SubmitHierarchy(w.cv, cv2); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Release and resources survive.
	if ld.Release() != Release30 {
		t.Fatalf("release = %s", ld.Release())
	}
	if got := ld.Flows(); len(got) != 1 || got[0] != "asic" {
		t.Fatalf("flows = %v", got)
	}
	f, err := ld.Flow("asic")
	if err != nil || !f.Frozen() {
		t.Fatal("flow not restored frozen")
	}
	if got := f.Activities(); len(got) != 3 {
		t.Fatalf("activities = %v", got)
	}
	if got := f.Successors("schematic-entry"); len(got) != 1 || got[0] != "simulate" {
		t.Fatalf("precedes lost: %v", got)
	}
	// Project data survives (same OIDs).
	if got := ld.Cells(w.project); len(got) != 2 {
		t.Fatalf("cells = %v", got)
	}
	if ld.CellVersionNum(w.cv) != 1 {
		t.Fatal("cell version lost")
	}
	// Reservation survives.
	holder, held := ld.ReservedBy(w.cv)
	if !held || holder != "anna" {
		t.Fatalf("reservation lost: %q,%t", holder, held)
	}
	// Hierarchy survives.
	if got := ld.Children(w.cv); len(got) != 1 || got[0] != cv2 {
		t.Fatalf("hierarchy lost: %v", got)
	}
	// Design data survives, byte-exact.
	dst := filepath.Join(t.TempDir(), "out.sch")
	if err := ld.CheckOutData("anna", dov, dst); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dst)
	if err != nil || string(data) != "schematic alu\n" {
		t.Fatalf("design data lost: %q, %v", data, err)
	}
	// The restored framework is fully operational: publish then re-reserve.
	if err := ld.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := ld.Reserve("bert", w.cv); err != nil {
		t.Fatal(err)
	}
	// New objects do not collide with old OIDs.
	cell3, err := ld.CreateCell(w.project, "mul")
	if err != nil {
		t.Fatal(err)
	}
	if cell3 == w.cell || cell3 == cell2 {
		t.Fatal("OID reuse after load")
	}
}

func TestSaveLoadRelease40State(t *testing.T) {
	w := newWorld(t, Release40)
	fw := w.fw
	cell2, _ := fw.CreateCell(w.project, "reg")
	cv2, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	if err := fw.SubmitHierarchyTyped(w.cv, cv2, "layout"); err != nil {
		t.Fatal(err)
	}
	team2, _ := fw.CreateTeam("t2")
	project2, err := fw.CreateProject("p2", team2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.ShareCell(w.cell, project2); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Release() != Release40 {
		t.Fatal("release lost")
	}
	kids, err := ld.TypedChildren(w.cv, "layout")
	if err != nil || len(kids) != 1 || kids[0] != cv2 {
		t.Fatalf("typed hierarchy lost: %v, %v", kids, err)
	}
	shared, err := ld.SharedCells(project2)
	if err != nil || len(shared) != 1 || shared[0] != w.cell {
		t.Fatalf("shares lost: %v, %v", shared, err)
	}
}

// commitPair commits a hand-built (framework, oms) payload pair through
// a real CURRENT manifest with correct checksums, so Load gets past the
// manifest and checksum checks and must judge the payloads themselves.
// A nil omsPayload leaves the named oms payload unwritten.
func commitPair(t *testing.T, dir string, fwPayload, omsPayload []byte) {
	t.Helper()
	b, err := backend.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("framework@1", fwPayload); err != nil {
		t.Fatal(err)
	}
	if omsPayload != nil {
		if err := b.Put("oms@1", omsPayload); err != nil {
			t.Fatal(err)
		}
	}
	m := backend.Manifest{
		Epoch:        1,
		OMS:          "oms@1",
		Framework:    "framework@1",
		OMSSum:       backend.SHA256Hex(omsPayload),
		FrameworkSum: backend.SHA256Hex(fwPayload),
		BaseEpoch:    1,
	}
	if err := backend.PutManifest(b, m); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	// No CURRENT manifest means no committed state: the error says so
	// with backend.ErrNotFound, missing directory or empty one alike.
	for _, dir := range []string{filepath.Join(t.TempDir(), "missing"), t.TempDir()} {
		if _, err := Load(dir); !errors.Is(err, backend.ErrNotFound) {
			t.Fatalf("Load(%s) without a manifest = %v, want ErrNotFound", dir, err)
		}
	}

	empty, err := New(Release30)
	if err != nil {
		t.Fatal(err)
	}
	emptyDir := t.TempDir()
	if err := empty.Save(emptyDir); err != nil {
		t.Fatal(err)
	}
	_, omsPayload := readCommitted(t, emptyDir)

	// A corrupt framework payload under a valid manifest and checksums
	// is rejected by the framework decode itself.
	dir := t.TempDir()
	commitPair(t, dir, []byte("{bad"), omsPayload)
	if _, err := Load(dir); err == nil {
		t.Fatal("corrupt framework payload accepted")
	}
	// A manifest naming an oms payload that was never written.
	dir = t.TempDir()
	commitPair(t, dir, []byte(`{"release":30}`), nil)
	if _, err := Load(dir); err == nil {
		t.Fatal("missing oms payload accepted")
	}
	// The same pieces, well-formed, load: the two rejections above are
	// about the payloads, not about the hand-built commit.
	dir = t.TempDir()
	commitPair(t, dir, []byte(`{"release":30}`), omsPayload)
	if _, err := Load(dir); err != nil {
		t.Fatalf("hand-committed well-formed pair rejected: %v", err)
	}
}

// TestLoadMissingDirCreatesNothing: loading a state directory that does
// not exist fails with backend.ErrNotFound and leaves it missing.
func TestLoadMissingDirCreatesNothing(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	_, err := Load(filepath.Join(missing, "master"))
	if !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("Load of a missing dir: %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load of a missing dir left %s behind (%v)", missing, err)
	}
}

// readCommitted resolves the committed payload pair of a state dir
// through its CURRENT manifest.
func readCommitted(t *testing.T, dir string) (fwPayload, omsPayload []byte) {
	t.Helper()
	b, err := backend.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	mdata, err := b.Get("CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		OMS       string `json:"oms"`
		Framework string `json:"framework"`
	}
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	fwPayload, err = b.Get(m.Framework)
	if err != nil {
		t.Fatal(err)
	}
	omsPayload, err = b.Get(m.OMS)
	if err != nil {
		t.Fatal(err)
	}
	return fwPayload, omsPayload
}

func TestSaveIsDeterministic(t *testing.T) {
	w := newWorld(t, Release30)
	dir1, dir2 := t.TempDir(), t.TempDir()
	if err := w.fw.Save(dir1); err != nil {
		t.Fatal(err)
	}
	if err := w.fw.Save(dir2); err != nil {
		t.Fatal(err)
	}
	fw1, oms1 := readCommitted(t, dir1)
	fw2, oms2 := readCommitted(t, dir2)
	if string(fw1) != string(fw2) {
		t.Fatal("framework payload not deterministic")
	}
	if string(oms1) != string(oms2) {
		t.Fatal("oms payload not deterministic")
	}
}

// TestSaveCommitIsAtomic corrupts a committed payload and expects Load to
// reject the pair via the manifest checksums instead of resurrecting
// inconsistent state.
func TestSaveCommitIsAtomic(t *testing.T) {
	w := newWorld(t, Release30)
	dir := t.TempDir()
	if err := w.fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the committed oms payload, bypassing Save.
	var m struct {
		OMS string `json:"oms"`
	}
	mdata, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(filepath.Join(dir, m.OMS))
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, m.OMS), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("corrupt committed payload accepted")
	}
}

// TestSaveLoadThroughSegmentBackend round-trips the framework through the
// append-only WAL backend — the same public Save/Load semantics over the
// second storage implementation.
func TestSaveLoadThroughSegmentBackend(t *testing.T) {
	w := newWorld(t, Release30)
	if err := w.fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	// Save twice: the segment backend is delta-capable, and nothing
	// changed since epoch 1, so epoch 2 is a differential commit that
	// re-binds the epoch-1 base snapshot — no second OMS payload exists.
	if err := w.fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	reopened, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := LoadFrom(reopened)
	if err != nil {
		t.Fatal(err)
	}
	holder, held := ld.ReservedBy(w.cv)
	if !held || holder != "anna" {
		t.Fatalf("reservation lost through segment backend: %q,%t", holder, held)
	}
	if got := ld.Flows(); len(got) != 1 || got[0] != "asic" {
		t.Fatalf("flows = %v", got)
	}
	names, err := reopened.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CURRENT", "framework@1", "framework@2", "oms@1"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("after full + differential save want %v, got %v", want, names)
	}
	// A loaded framework has no differential anchor, so its next save is
	// a full base snapshot (epoch 3). GC retains what the new AND the
	// previous manifest reference — the epoch-2 manifest still names the
	// epoch-1 base — and collects the rest (framework@1).
	if err := ld.SaveTo(reopened); err != nil {
		t.Fatal(err)
	}
	names, err = reopened.List()
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"CURRENT", "framework@2", "framework@3", "oms@1", "oms@3"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("after full save over differential chain want %v, got %v", want, names)
	}
}

// copyFixture copies the state directory testdata/name into a fresh
// temporary directory and returns it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", name)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// loadSegmentDir opens dir with the segment backend and loads it, with
// CheckConsistency empty.
func loadSegmentDir(t *testing.T, dir string) (*Framework, backend.Backend) {
	t.Helper()
	seg, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := LoadFrom(seg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := fw.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("CheckConsistency after load: %v", bad)
	}
	return fw, seg
}

// TestLoadsSegmentStateFromPreviousFormat opens testdata/segment-v1, a
// state directory the build at commit 3047bfd wrote through SaveTo (one
// full save, then two commits each followed by a differential save)
// after loading testdata/segment-parent. The current build must load it
// as it stands, save over it, and load again: the fixture pins the
// on-disk format against silent drift, and shows that loading an older
// dir with that build and saving it to a new one upgrades it.
func TestLoadsSegmentStateFromPreviousFormat(t *testing.T) {
	dir := copyFixture(t, "segment-v1")
	fw, seg := loadSegmentDir(t, dir)
	// Exactly the names the fixture holds: the records of names its
	// saves deleted must not come back.
	names, err := seg.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CURRENT", "delta@2", "delta@3", "framework@2", "framework@3", "oms@1"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("fixture names = %v, want %v", names, want)
	}
	project, err := fw.Project("chip1")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := fw.Cell(project, "alu")
	if err != nil {
		t.Fatal(err)
	}
	cv := fw.CellVersions(cell)[0]
	if holder, held := fw.ReservedBy(cv); !held || holder != "anna" {
		t.Fatalf("reservation = %q,%t, want anna", holder, held)
	}
	assertFixtureFlow(t, fw)
	before := len(fw.DesignObjects(fw.Variants(cv)[0]))
	if before != 8 {
		t.Fatalf("%d design objects loaded, want 8", before)
	}
	// The users the two differential saves committed.
	for _, user := range []string{"erik", "frida"} {
		if _, err := fw.User(user); err != nil {
			t.Fatalf("user %s of the fixture's deltas: %v", user, err)
		}
	}
	if base := committedBase(t, seg); !strings.HasPrefix(string(base), "\x00OMS") {
		t.Fatalf("fixture base starts %q, want the binary snapshot magic", base[:min(len(base), 8)])
	}
	// The first save after a load is a full one.
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	if base := committedBase(t, seg); !strings.HasPrefix(string(base), "\x00OMS") {
		t.Fatalf("base written over the fixture starts %q, want the binary snapshot magic", base[:min(len(base), 8)])
	}
	again, _ := loadSegmentDir(t, dir)
	if got := len(again.DesignObjects(again.Variants(cv)[0])); got != before {
		t.Fatalf("%d design objects after save and reload, want %d", got, before)
	}
	if !bytes.Equal(again.store.Snapshot().Encode(), fw.store.Snapshot().Encode()) {
		t.Fatal("store reloaded from the binary base differs from the saved one")
	}
	assertFixtureFlow(t, again)
}

// committedBase returns the base snapshot payload the backend's CURRENT
// manifest names.
func committedBase(t *testing.T, b backend.Backend) []byte {
	t.Helper()
	m, err := backend.LoadManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	base, err := b.Get(m.OMS)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// assertFixtureFlow checks the flow the segment-v1 fixture's store
// holds: asic, schematic-entry -> simulate -> layout-entry.
func assertFixtureFlow(t *testing.T, fw *Framework) {
	t.Helper()
	if got := fw.Flows(); fmt.Sprint(got) != "[asic]" {
		t.Fatalf("flows = %v, want [asic]", got)
	}
	f, err := fw.Flow("asic")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(f.Activities()); got != "[schematic-entry simulate layout-entry]" {
		t.Fatalf("asic activities = %s", got)
	}
	for before, after := range map[string]string{"schematic-entry": "[simulate]", "simulate": "[layout-entry]", "layout-entry": "[]"} {
		if got := fmt.Sprint(f.Successors(before)); got != after {
			t.Fatalf("asic successors of %s = %s, want %s", before, got, after)
		}
	}
	a, err := f.Activity("layout-entry")
	if err != nil || a.Tool != "fmcad-layout" || fmt.Sprint(a.Needs) != "[schematic]" || fmt.Sprint(a.Creates) != "[layout]" {
		t.Fatalf("asic layout-entry = %+v, %v", a, err)
	}
}

// TestLoadContinuesSavedLSNs: a loaded store's feed sits at the
// manifest's FeedLSN, and its ring does not claim the history before
// the base's cut. Covered: a full save through the file backend,
// differential saves through the segment backend, and the segment-v1
// fixture.
func TestLoadContinuesSavedLSNs(t *testing.T) {
	saved := func(t *testing.T, delta bool) backend.Backend {
		w := newWorld(t, Release40)
		if !delta {
			dir := t.TempDir()
			if err := w.fw.Save(dir); err != nil {
				t.Fatal(err)
			}
			b, err := backend.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		seg, err := backend.OpenSegment(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, holder := range []string{"", "anna", "bert"} {
			if holder != "" {
				if err := w.fw.Reserve(holder, w.cv); err != nil {
					t.Fatal(err)
				}
				if err := w.fw.ReleaseReservation(holder, w.cv); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.fw.SaveTo(seg); err != nil {
				t.Fatal(err)
			}
		}
		return seg
	}
	fixture := func(name string) func(t *testing.T) backend.Backend {
		return func(t *testing.T) backend.Backend {
			seg, err := backend.OpenSegment(copyFixture(t, name))
			if err != nil {
				t.Fatal(err)
			}
			return seg
		}
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) backend.Backend
		deltas int
	}{
		{"file-full-save", func(t *testing.T) backend.Backend { return saved(t, false) }, 0},
		{"segment-differential-saves", func(t *testing.T) backend.Backend { return saved(t, true) }, 2},
		{"segment-v1", fixture("segment-v1"), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build(t)
			m, err := backend.LoadManifest(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Deltas) != tc.deltas || m.BaseLSN == 0 {
				t.Fatalf("test premise broken: %d deltas over a base at LSN %d, want %d over a base past 0",
					len(m.Deltas), m.BaseLSN, tc.deltas)
			}
			fw, err := LoadFrom(b)
			if err != nil {
				t.Fatal(err)
			}
			if got := fw.FeedLSN(); got != m.FeedLSN {
				t.Fatalf("loaded feed at %d, want the manifest's %d", got, m.FeedLSN)
			}
			if _, complete := fw.store.Changes(0); complete {
				t.Fatal("loaded feed claims the history before the base's cut")
			}
		})
	}
}

// TestLoadRefusesDeltaEndingShort: a manifest whose last delta claims
// records its payload does not hold is refused — the loaded feed would
// otherwise sit below the manifest's FeedLSN.
func TestLoadRefusesDeltaEndingShort(t *testing.T) {
	w := newWorld(t, Release40)
	seg, err := backend.OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	if err := w.fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := w.fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	m, err := backend.LoadManifest(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Deltas) != 1 {
		t.Fatalf("test premise broken: %d deltas, want 1", len(m.Deltas))
	}
	m.Deltas[0].ToLSN++
	m.FeedLSN++
	if err := backend.PutManifest(seg, m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFrom(seg); err == nil {
		t.Fatal("a delta ending short of its manifest range loaded")
	}
}

// oldPayload returns the payload of name in an older fixture, read
// through the fixture's MANIFEST ref: a JWAL record is a 20-byte header,
// the name and the payload.
func oldPayload(t *testing.T, fixture, name string) []byte {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Refs map[string]struct {
			Segment string `json:"segment"`
			Offset  int64  `json:"offset"`
			Length  int64  `json:"length"`
		} `json:"refs"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	ref, ok := m.Refs[name]
	if !ok {
		t.Fatalf("%s holds no %s", fixture, name)
	}
	seg, err := os.ReadFile(filepath.Join(dir, ref.Segment))
	if err != nil {
		t.Fatal(err)
	}
	start := ref.Offset + 20 + int64(len(name))
	return seg[start : start+ref.Length]
}

// dirContents returns every file of dir and its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestLoadRefusesOldFormats: state in an on-disk format older than this
// build's is refused with backend.ErrOldFormat, and the refusal leaves
// the state dir byte-identical. The JSON base, the JSON delta and the
// release header that carries the framework's metadata are the
// segment-parent fixture's own, each committed into a copy of segment-v1
// by the current backend; the two JWAL fixtures are loaded as they
// stand.
func TestLoadRefusesOldFormats(t *testing.T) {
	v1With := func(change func(t *testing.T, seg *backend.Segment, m *backend.Manifest)) func(t *testing.T) string {
		return func(t *testing.T) string {
			dir := copyFixture(t, "segment-v1")
			seg, err := backend.OpenSegment(dir)
			if err != nil {
				t.Fatal(err)
			}
			m, err := backend.LoadManifest(seg)
			if err != nil {
				t.Fatal(err)
			}
			change(t, seg, &m)
			if err := backend.PutManifest(seg, m); err != nil {
				t.Fatal(err)
			}
			return dir
		}
	}
	put := func(t *testing.T, seg *backend.Segment, name string, payload []byte) string {
		t.Helper()
		if err := seg.Put(name, payload); err != nil {
			t.Fatal(err)
		}
		return backend.SHA256Hex(payload)
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) string
	}{
		{"json-base", v1With(func(t *testing.T, seg *backend.Segment, m *backend.Manifest) {
			m.OMSSum = put(t, seg, m.OMS, oldPayload(t, "segment-parent", "oms@1"))
			m.Deltas, m.FeedLSN = nil, m.BaseLSN
		})},
		{"json-delta", v1With(func(t *testing.T, seg *backend.Segment, m *backend.Manifest) {
			last := &m.Deltas[len(m.Deltas)-1]
			last.Sum = put(t, seg, last.Name, oldPayload(t, "segment-parent", "delta@3"))
		})},
		{"release-header-with-metadata", v1With(func(t *testing.T, seg *backend.Segment, m *backend.Manifest) {
			m.FrameworkSum = put(t, seg, m.Framework, oldPayload(t, "segment-parent", "framework@3"))
		})},
		{"non-empty-base-at-lsn-0", v1With(func(t *testing.T, seg *backend.Segment, m *backend.Manifest) {
			m.BaseLSN, m.Deltas, m.FeedLSN = 0, nil, 0
		})},
		{"jwal-segment", func(t *testing.T) string { return copyFixture(t, "segment-parent") }},
		{"jwal-segment-torn", func(t *testing.T) string { return copyFixture(t, "segment-parent-torn") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.build(t)
			before := dirContents(t, dir)
			seg, err := backend.OpenSegment(dir)
			if err == nil {
				_, err = LoadFrom(seg)
			}
			if !errors.Is(err, backend.ErrOldFormat) {
				t.Fatalf("load: %v, want ErrOldFormat", err)
			}
			if !maps.Equal(dirContents(t, dir), before) {
				t.Fatal("the refused load changed the state dir")
			}
		})
	}
}
