package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/jcf"
	"repro/internal/oms"
	"repro/internal/tools/schematic"
)

// Tests for the coupling sync: SyncLibrary's import of master-side
// checkins and VerifyMapping, both read from the master's store.

// checkInDirect checks data into a design object through the master
// alone, as a designer at the JCF desktop would, bypassing the tools.
func checkInDirect(t *testing.T, h *Hybrid, user string, do oms.OID, data string) oms.OID {
	t.Helper()
	src := filepath.Join(t.TempDir(), "direct")
	if err := os.WriteFile(src, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	dov, err := h.JCF.CheckInData(user, do, src)
	if err != nil {
		t.Fatal(err)
	}
	return dov
}

// TestSyncLibraryImportsDirectCheckin: design data checked into the
// master directly (JCF desktop, not an encapsulated tool run) reaches
// the slave library through SyncLibrary, tagged with its JCF version — and the
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
	dov := checkInDirect(t, w.h, "anna", binding.DesignObjects[ViewSchematic], "schematic alu_v1\n.end\n")
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
// wrappers are already tagged; SyncLibrary must not duplicate
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

// TestSyncLibraryAfterReloadImportsEarlierCheckin: a direct checkin
// saved with the master but not yet imported is imported by the
// reloaded hybrid, which knows of it only through the master's store.
func TestSyncLibraryAfterReloadImportsEarlierCheckin(t *testing.T) {
	w := newHW(t, jcf.Release30)
	dir := filepath.Dir(w.h.StageDir())
	if err := w.h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	binding, err := w.h.BindingFor(w.cv)
	if err != nil {
		t.Fatal(err)
	}
	dov := checkInDirect(t, w.h, "anna", binding.DesignObjects[ViewSchematic], "schematic alu_v1\n.end\n")
	if err := w.h.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadHybrid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if imported, err := ld.SyncLibrary(); err != nil || imported != 1 {
		t.Fatalf("sync after reload imported %d (err %v), want 1", imported, err)
	}
	versions, err := ld.Lib.Versions(binding.FMCADCell, ViewSchematic)
	if err != nil {
		t.Fatal(err)
	}
	tag, ok, err := ld.Lib.GetProperty(binding.FMCADCell, ViewSchematic, versions[len(versions)-1], PropJCFVersion)
	if err != nil || !ok || tag != fmt.Sprint(dov) {
		t.Fatalf("imported version tag = %q,%t,%v want %d", tag, ok, err, dov)
	}
	if again, err := ld.SyncLibrary(); err != nil || again != 0 {
		t.Fatalf("second sync imported %d (err %v), want 0", again, err)
	}
}

// TestSyncLibraryConcurrentWithToolRuns loops SyncLibrary against
// designers who run schematic entry and check waveforms in directly on
// the same cells. Every master version must end up on exactly one slave
// version: the tool runs' own captures are never imported again, and
// each direct checkin is imported once.
func TestSyncLibraryConcurrentWithToolRuns(t *testing.T) {
	w := newHW(t, jcf.Release30)
	h := w.h
	b, err := h.NewDesignCell(w.project, "b", h.DefaultFlowName(), w.team)
	if err != nil {
		t.Fatal(err)
	}
	designers := map[string]oms.OID{"anna": w.cv, "bert": b}
	for user, cv := range designers {
		if err := h.JCF.Reserve(user, cv); err != nil {
			t.Fatal(err)
		}
		if _, err := h.RunSchematicEntry(user, cv, drawHalfAdder, RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 8
	var wg sync.WaitGroup
	for user, cv := range designers {
		binding, err := h.BindingFor(cv)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(user string, cv, waveform oms.OID) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if _, err := h.RunSchematicEntry(user, cv, func(s *schematic.Schematic) error {
					return s.AddNet(fmt.Sprintf("n%d", i))
				}, RunOpts{}); err != nil {
					t.Error(err)
					return
				}
				src := filepath.Join(t.TempDir(), "waves")
				if err := os.WriteFile(src, []byte(fmt.Sprintf("wave %s %d\n", user, i)), 0o644); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.JCF.CheckInData(user, waveform, src); err != nil {
					t.Error(err)
					return
				}
			}
		}(user, cv, binding.DesignObjects[ViewWaveform])
	}
	done := make(chan struct{})
	imported := 0
	var syncErr error
	var syncWG sync.WaitGroup
	syncWG.Add(1)
	go func() {
		defer syncWG.Done()
		for {
			n, err := h.SyncLibrary()
			imported += n
			if err != nil {
				syncErr = err
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	syncWG.Wait()
	if syncErr != nil {
		t.Fatal(syncErr)
	}
	n, err := h.SyncLibrary()
	if err != nil {
		t.Fatal(err)
	}
	imported += n
	if imported != runs*len(designers) {
		t.Fatalf("imported %d versions, want the %d direct checkins", imported, runs*len(designers))
	}
	if again, err := h.SyncLibrary(); err != nil || again != 0 {
		t.Fatalf("final sync imported %d (err %v), want 0", again, err)
	}
	for _, cv := range designers {
		binding, err := h.BindingFor(cv)
		if err != nil {
			t.Fatal(err)
		}
		for view, do := range binding.DesignObjects {
			versions, err := h.Lib.Versions(binding.FMCADCell, view)
			if err != nil {
				t.Fatal(err)
			}
			carried := map[string]int{}
			for _, v := range versions {
				if tag, ok, err := h.Lib.GetProperty(binding.FMCADCell, view, v, PropJCFVersion); err != nil {
					t.Fatal(err)
				} else if ok {
					carried[tag]++
				}
			}
			dovs := h.JCF.DesignObjectVersions(do)
			if len(carried) != len(dovs) {
				t.Fatalf("%s/%s: tags %v for master versions %v", binding.FMCADCell, view, carried, dovs)
			}
			for _, dov := range dovs {
				if carried[fmt.Sprint(dov)] != 1 {
					t.Fatalf("%s/%s: version %d tagged on %d slave versions", binding.FMCADCell, view, dov, carried[fmt.Sprint(dov)])
				}
			}
		}
	}
	if problems, err := h.SlaveSyncCheck(); err != nil || len(problems) != 0 {
		t.Fatalf("slave sync problems %v, %v", problems, err)
	}
}

// TestVerifyMappingReportsDoublyBoundCell: a slave cell that the master
// binds to two cell versions breaks the inverse mapping of both.
func TestVerifyMappingReportsDoublyBoundCell(t *testing.T) {
	w := newHW(t, jcf.Release30)
	h := w.h
	cell, err := h.JCF.CreateCell(w.project, "b")
	if err != nil {
		t.Fatal(err)
	}
	cv, err := h.JCF.CreateCellVersion(cell, h.DefaultFlowName(), w.team)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.JCF.BindSlaveCell(cv, "alu_v1", boundViews); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CellVersionFor("alu_v1"); err == nil {
		t.Fatal("CellVersionFor resolved a cell bound twice")
	}
	problems := h.VerifyMapping()
	if len(problems) != 2 {
		t.Fatalf("VerifyMapping = %v, want the broken inverse of both bindings", problems)
	}
	for _, p := range problems {
		if !strings.Contains(p, "inverse mapping broken for alu_v1") {
			t.Fatalf("VerifyMapping = %v", problems)
		}
	}
}

// TestFailedMasterCheckinLeavesNoSlaveVersion: the capture step commits
// the master first, so a tool run whose master checkin fails (here the
// reservation is released while the tool runs) leaves no slave version,
// tagged or not, and the slave checkout is released.
func TestFailedMasterCheckinLeavesNoSlaveVersion(t *testing.T) {
	w := newHW(t, jcf.Release30)
	h := w.h
	if err := h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	binding, err := h.BindingFor(w.cv)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.RunSchematicEntry("anna", w.cv, func(s *schematic.Schematic) error {
		if err := h.JCF.ReleaseReservation("anna", w.cv); err != nil {
			return err
		}
		return drawHalfAdder(s)
	}, RunOpts{})
	if !errors.Is(err, jcf.ErrNotReserved) {
		t.Fatalf("run after losing the reservation = %v, want %v", err, jcf.ErrNotReserved)
	}
	if versions, err := h.Lib.Versions(binding.FMCADCell, ViewSchematic); err != nil || len(versions) != 1 {
		t.Fatalf("slave versions %v (err %v), want only the seed", versions, err)
	}
	if holder, err := h.Lib.LockedBy(binding.FMCADCell, ViewSchematic); err != nil || holder != "" {
		t.Fatalf("slave cellview held by %q (err %v) after the failed run", holder, err)
	}
	if dovs := h.JCF.DesignObjectVersions(binding.DesignObjects[ViewSchematic]); len(dovs) != 0 {
		t.Fatalf("master holds versions %v after the refused checkin", dovs)
	}
	if problems, err := h.SlaveSyncCheck(); err != nil || len(problems) != 0 {
		t.Fatalf("SlaveSyncCheck = %v, %v; want clean", problems, err)
	}
	if problems := h.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("VerifyMapping = %v", problems)
	}
}

// TestFailedSlaveCheckinIsImportedBySync: when the slave checkin fails
// after the master checkin (a directory sits where the version file
// goes), the run fails and releases the slave checkout, and the next
// SyncLibrary imports exactly that master version, tagged. A tool run
// and an import each make two slave metadata commits: the checkout and
// the checkin that carries the tag.
func TestFailedSlaveCheckinIsImportedBySync(t *testing.T) {
	w := newHW(t, jcf.Release30)
	h := w.h
	if err := h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	seq := h.Lib.Seq()
	if _, err := h.RunSchematicEntry("anna", w.cv, drawHalfAdder, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	// A tool run is a checkout and one checkin that carries the tag.
	if writes := h.Lib.Seq() - seq; writes != 2 {
		t.Fatalf("the tool run made %d slave metadata commits, want 2", writes)
	}
	binding, err := h.BindingFor(w.cv)
	if err != nil {
		t.Fatal(err)
	}
	cell, do := binding.FMCADCell, binding.DesignObjects[ViewSchematic]
	next := h.Lib.VersionPath(cell, ViewSchematic, 3)
	if err := os.Mkdir(next, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunSchematicEntry("anna", w.cv, func(s *schematic.Schematic) error {
		return s.AddNet("n1")
	}, RunOpts{}); err == nil {
		t.Fatal("a run whose slave checkin failed succeeded")
	}
	if holder, err := h.Lib.LockedBy(cell, ViewSchematic); err != nil || holder != "" {
		t.Fatalf("slave cellview held by %q (err %v) after the failed run", holder, err)
	}
	dovs := h.JCF.DesignObjectVersions(do)
	if len(dovs) != 2 {
		t.Fatalf("master versions %v, want the first run's and the failed run's", dovs)
	}
	if err := os.Remove(next); err != nil {
		t.Fatal(err)
	}
	seq = h.Lib.Seq()
	if imported, err := h.SyncLibrary(); err != nil || imported != 1 {
		t.Fatalf("sync imported %d (err %v), want 1", imported, err)
	}
	// The import is a checkout and one checkin that carries the tag.
	if writes := h.Lib.Seq() - seq; writes != 2 {
		t.Fatalf("the import made %d slave metadata commits, want 2", writes)
	}
	versions, err := h.Lib.Versions(cell, ViewSchematic)
	if err != nil || len(versions) != 3 {
		t.Fatalf("slave versions %v (err %v), want 1..3", versions, err)
	}
	if tag, ok, err := h.Lib.GetProperty(cell, ViewSchematic, 3, PropJCFVersion); err != nil || !ok || tag != fmt.Sprint(dovs[1]) {
		t.Fatalf("imported version tag = %q,%t,%v want %d", tag, ok, err, dovs[1])
	}
	master := filepath.Join(t.TempDir(), "master")
	if err := h.JCF.ExportVersionData(dovs[1], master); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Lib.ReadVersion(cell, ViewSchematic, 3); err != nil || string(got) != string(want) {
		t.Fatalf("imported version = %q (err %v), want the master's %q", got, err, want)
	}
	if problems, err := h.SlaveSyncCheck(); err != nil || len(problems) != 0 {
		t.Fatalf("SlaveSyncCheck = %v, %v; want clean", problems, err)
	}
	if problems := h.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("VerifyMapping = %v", problems)
	}
}

// TestFailedSlaveCheckinFinishesActivity: the master's commit decides a
// tool run's outcome. A run whose slave checkin fails after the master
// checked its output in still returns an error naming SyncLibrary, but
// its activity finishes as done, so the flow goes on: after the import,
// the simulation runs on that schematic without a second schematic entry.
func TestFailedSlaveCheckinFinishesActivity(t *testing.T) {
	w := newHW(t, jcf.Release30)
	h := w.h
	if err := h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	binding, err := h.BindingFor(w.cv)
	if err != nil {
		t.Fatal(err)
	}
	cell, do := binding.FMCADCell, binding.DesignObjects[ViewSchematic]
	next := h.Lib.VersionPath(cell, ViewSchematic, 2)
	if err := os.Mkdir(next, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := h.RunSchematicEntry("anna", w.cv, drawHalfAdder, RunOpts{})
	if err == nil || !strings.Contains(err.Error(), "SyncLibrary") {
		t.Fatalf("run whose slave checkin failed = %v, want an error naming SyncLibrary", err)
	}
	dovs := h.JCF.DesignObjectVersions(do)
	if len(dovs) != 1 || res.OutputDOV != dovs[0] {
		t.Fatalf("master versions %v, run output %d; want the run's one version", dovs, res.OutputDOV)
	}
	if hist := h.JCF.ExecutionHistory(w.cv); len(hist) == 0 || hist[len(hist)-1] != ActSchematicEntry+"/done" {
		t.Fatalf("ExecutionHistory = %v, want it to end in %s/done", hist, ActSchematicEntry)
	}
	if err := os.Remove(next); err != nil {
		t.Fatal(err)
	}
	if imported, err := h.SyncLibrary(); err != nil || imported != 1 {
		t.Fatalf("sync imported %d (err %v), want 1", imported, err)
	}
	stim := []byte("at 0 set a 1\nat 0 set b 1\nrun 50\n")
	if _, _, err := h.RunSimulation("anna", w.cv, stim, RunOpts{}); err != nil {
		t.Fatalf("simulation after the import: %v", err)
	}
	if got := h.JCF.DesignObjectVersions(do); len(got) != 1 {
		t.Fatalf("master schematic versions %v after the simulation, want only %v", got, dovs)
	}
	if problems, err := h.SlaveSyncCheck(); err != nil || len(problems) != 0 {
		t.Fatalf("SlaveSyncCheck = %v, %v; want clean", problems, err)
	}
}
