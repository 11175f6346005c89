package jcf

import (
	"encoding/json"
	"errors"
	"fmt"
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

// TestLoadRejectsTornPair builds, by hand, the exact artifact a two-cut
// save could produce — a framework payload whose reservation names a
// cell version absent from the oms payload — commits it through a valid
// manifest, and expects Load's cross-validation to refuse it.
func TestLoadRejectsTornPair(t *testing.T) {
	w := newWorld(t, Release30)
	if err := w.fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Pair the committed framework payload (reservation included) with
	// the oms payload of an EMPTY framework — mixed cuts.
	empty, err := New(Release30)
	if err != nil {
		t.Fatal(err)
	}
	emptyDir := t.TempDir()
	if err := empty.Save(emptyDir); err != nil {
		t.Fatal(err)
	}
	fwPayload, _ := readCommitted(t, dir)
	_, emptyOMS := readCommitted(t, emptyDir)

	torn := t.TempDir()
	commitPair(t, torn, fwPayload, emptyOMS)
	_, err = Load(torn)
	if err == nil {
		t.Fatal("torn (framework, oms) pair accepted")
	}
	if !strings.Contains(err.Error(), "torn snapshot pair") {
		t.Fatalf("torn pair rejected for the wrong reason: %v", err)
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

// TestLoadsSegmentStateFromPreviousFormat opens testdata/segment-parent,
// a state directory written through SaveTo (one full save, two
// differential saves) by the segment backend that rewrote MANIFEST on
// every Put and Delete and checksummed record payloads only. The current
// backend must load it as it stands, save over it, and load again.
func TestLoadsSegmentStateFromPreviousFormat(t *testing.T) {
	dir := copyFixture(t, "segment-parent")
	fw, seg := loadSegmentDir(t, dir)
	// Exactly the names the fixture's MANIFEST holds: the old records of
	// names it deleted must not come back.
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
	before := len(fw.DesignObjects(fw.Variants(cv)[0]))
	if before != 8 {
		t.Fatalf("%d design objects loaded, want 8", before)
	}
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	again, _ := loadSegmentDir(t, dir)
	if got := len(again.DesignObjects(again.Variants(cv)[0])); got != before {
		t.Fatalf("%d design objects after save and reload, want %d", got, before)
	}
}

// TestLoadsTornSegmentStateFromPreviousFormat opens
// testdata/segment-parent-torn, written through SaveTo by the same
// earlier segment backend: one full save, then a torn record at the
// segment's tail (a crash mid-append), then, after a restart, a full and
// a differential save that the earlier backend appended behind the torn
// record and committed through MANIFEST. The current backend must keep
// those records: every name still reads after one more save, on the
// saving instance and after a reopen.
func TestLoadsTornSegmentStateFromPreviousFormat(t *testing.T) {
	dir := copyFixture(t, "segment-parent-torn")
	fw, seg := loadSegmentDir(t, dir)
	names, err := seg.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CURRENT", "delta@3", "framework@2", "framework@3", "oms@2"}
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
	if got := len(fw.DesignObjects(fw.Variants(cv)[0])); got != 6 {
		t.Fatalf("%d design objects loaded, want 6", got)
	}
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	getAll := func(b backend.Backend) {
		t.Helper()
		names, err := b.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if _, err := b.Get(n); err != nil {
				t.Fatalf("Get(%s) after a save over the torn segment: %v", n, err)
			}
		}
	}
	getAll(seg)
	again, reopened := loadSegmentDir(t, dir)
	getAll(reopened)
	if got := len(again.DesignObjects(again.Variants(cv)[0])); got != 6 {
		t.Fatalf("%d design objects after save and reload, want 6", got)
	}
}
