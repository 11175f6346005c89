package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/jcf"
)

// Tests for the feed-driven coupling sync: VerifyMapping's fast path
// and SyncLibrary's import of master-side checkins. See ISSUE 4.

// verifyMappingFull re-verifies every binding unconditionally, refreshing
// the cache: the pre-feed behaviour, the oracle for the fast path.
func (h *Hybrid) verifyMappingFull() []string {
	return h.verify(true)
}

// TestVerifyMappingFastPathMatchesFull: under normal operation the fast
// path and the full rescan agree, before and after master traffic.
func TestVerifyMappingFastPathMatchesFull(t *testing.T) {
	w := newHW(t, jcf.Release30)
	if got, want := w.h.VerifyMapping(), w.h.verifyMappingFull(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fast path %v != full %v", got, want)
	}
	if err := w.h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if _, err := w.h.RunSchematicEntry("anna", w.cv, drawHalfAdder, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	// Another bound cell after the first verification round.
	if _, err := w.h.NewDesignCell(w.project, "mul", w.h.DefaultFlowName(), w.team); err != nil {
		t.Fatal(err)
	}
	fast := w.h.VerifyMapping()
	full := w.h.verifyMappingFull()
	if len(fast) != 0 || fmt.Sprint(fast) != fmt.Sprint(full) {
		t.Fatalf("fast path %v != full %v", fast, full)
	}
}

// TestVerifyMappingFastPathCachesUntilDirty: a clean verification is
// cached — breakage invisible to the feed is not rediscovered until
// master-side traffic dirties the binding, at which point the fast path
// re-verifies and reports it. (verifyMappingFull always sees it.)
func TestVerifyMappingFastPathCachesUntilDirty(t *testing.T) {
	w := newHW(t, jcf.Release30)
	if problems := w.h.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("fresh world inconsistent: %v", problems)
	}
	// Break the inverse map behind the feed's back (no master change).
	w.h.mu.Lock()
	w.h.byCell["alu_v1"] = w.cv + 9999
	w.h.mu.Unlock()
	if problems := w.h.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("fast path rescanned without dirt: %v", problems)
	}
	if problems := w.h.verifyMappingFull(); len(problems) != 1 {
		t.Fatalf("full rescan missed the breakage: %v", problems)
	}
	// The full pass refreshed the cache; repair and dirty via master
	// traffic to show the feed-driven path converges on its own.
	w.h.mu.Lock()
	w.h.byCell["alu_v1"] = w.cv
	w.h.mu.Unlock()
	if err := w.h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if _, err := w.h.RunSchematicEntry("anna", w.cv, drawHalfAdder, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if problems := w.h.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("fast path did not re-verify the dirtied binding: %v", problems)
	}
}

// TestSyncLibraryImportsDirectCheckin: design data checked into the
// master directly (JCF desktop, not an encapsulated tool run) reaches
// the slave library via the feed, tagged with its JCF version — and the
// import is idempotent.
func TestSyncLibraryImportsDirectCheckin(t *testing.T) {
	w := newHW(t, jcf.Release30)
	if err := w.h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	binding, err := w.h.BindingFor(w.cv)
	if err != nil {
		t.Fatal(err)
	}
	do := binding.DesignObjects[ViewSchematic]
	src := filepath.Join(t.TempDir(), "alu.sch")
	if err := os.WriteFile(src, []byte("schematic alu_v1\n.end\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dov, err := w.h.JCF.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	// The library knows nothing about this version yet.
	versionsBefore, err := w.h.Lib.Versions(binding.FMCADCell, ViewSchematic)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := w.h.SyncLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if imported != 1 {
		t.Fatalf("imported %d versions, want 1", imported)
	}
	versionsAfter, err := w.h.Lib.Versions(binding.FMCADCell, ViewSchematic)
	if err != nil {
		t.Fatal(err)
	}
	if len(versionsAfter) != len(versionsBefore)+1 {
		t.Fatalf("library versions %v -> %v, want one new", versionsBefore, versionsAfter)
	}
	newest := versionsAfter[len(versionsAfter)-1]
	tag, ok, err := w.h.Lib.GetProperty(binding.FMCADCell, ViewSchematic, newest, PropJCFVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || tag != fmt.Sprint(dov) {
		t.Fatalf("imported version tag = %q,%t want %d", tag, ok, dov)
	}
	// The imported version is master-tracked: the slave-sync audit stays
	// clean.
	problems, err := w.h.SlaveSyncCheck()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("imported version reads as rogue: %v", problems)
	}
	// Idempotent: nothing left to import.
	if again, err := w.h.SyncLibrary(); err != nil || again != 0 {
		t.Fatalf("second sync imported %d (err %v), want 0", again, err)
	}
}

// TestSyncLibraryIgnoresEncapsulatedRuns: versions captured by the
// wrappers are already tagged; the feed-driven sync must not duplicate
// them.
func TestSyncLibraryIgnoresEncapsulatedRuns(t *testing.T) {
	w := newHW(t, jcf.Release30)
	if err := w.h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if _, err := w.h.RunSchematicEntry("anna", w.cv, drawHalfAdder, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	binding, err := w.h.BindingFor(w.cv)
	if err != nil {
		t.Fatal(err)
	}
	before, err := w.h.Lib.Versions(binding.FMCADCell, ViewSchematic)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := w.h.SyncLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if imported != 0 {
		t.Fatalf("sync duplicated %d encapsulated captures", imported)
	}
	after, err := w.h.Lib.Versions(binding.FMCADCell, ViewSchematic)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("library versions changed %v -> %v", before, after)
	}
}
