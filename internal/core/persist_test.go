package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fmcad"
	"repro/internal/jcf"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/tools/schematic"
)

func TestHybridSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h, err := NewHybrid(jcf.Release30, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.JCF.CreateUser("anna"); err != nil {
		t.Fatal(err)
	}
	team, err := h.JCF.CreateTeam("t")
	if err != nil {
		t.Fatal(err)
	}
	anna, _ := h.JCF.User("anna")
	if err := h.JCF.AddMember(team, anna); err != nil {
		t.Fatal(err)
	}
	project, err := h.JCF.CreateProject("p", team)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := h.NewDesignCell(project, "alu", h.DefaultFlowName(), team)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.JCF.Reserve("anna", cv); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunSchematicEntry("anna", cv, drawHalfAdder, RunOpts{}); err != nil {
		t.Fatal(err)
	}

	// More bindings: a second cell, and a second version of alu.
	if _, err := h.NewDesignCell(project, "b", h.DefaultFlowName(), team); err != nil {
		t.Fatal(err)
	}
	alu, err := h.JCF.CellOf(cv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewCellVersion(alu, h.DefaultFlowName(), team); err != nil {
		t.Fatal(err)
	}

	if err := h.Save(dir); err != nil {
		t.Fatal(err)
	}
	// The master is the only commit point: no side file of bindings.
	if _, err := os.Stat(filepath.Join(dir, "hybrid.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("save wrote hybrid.json: %v", err)
	}
	// A whole new process: reload everything from disk.
	ld, err := LoadHybrid(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameMapping(t, "after reload", h, ld)
	if got := ld.Bindings(); fmt.Sprint(got) != "[alu_v1 alu_v2 b_v1]" {
		t.Fatalf("bindings after reload = %v", got)
	}
	// Bindings restored both ways.
	b, err := ld.BindingFor(cv)
	if err != nil || b.FMCADCell != "alu_v1" || len(b.DesignObjects) != 3 {
		t.Fatalf("binding = %+v, %v", b, err)
	}
	got, err := ld.CellVersionFor("alu_v1")
	if err != nil || got != cv {
		t.Fatal("inverse binding lost")
	}
	if problems := ld.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("mapping problems after load: %v", problems)
	}
	// The reservation survived through the master's state.
	if holder, held := ld.JCF.ReservedBy(cv); !held || holder != "anna" {
		t.Fatalf("reservation lost: %q,%t", holder, held)
	}
	// Menu locks reinstalled.
	if !ld.MenuLocked("File>CheckIn") {
		t.Fatal("menu locks not reinstalled")
	}
	// The restored hybrid is fully operational: the flow continues where
	// the session left off (schematic done -> simulate next).
	startable, err := ld.JCF.StartableActivities(cv)
	if err != nil {
		t.Fatal(err)
	}
	// Note: enactment state is session-scoped (like the original); after
	// a restart the flow starts fresh, so schematic-entry is startable
	// again — but the design DATA survived, which is what matters.
	if len(startable) == 0 {
		t.Fatalf("nothing startable after reload: %v", startable)
	}
	stim := []byte("at 0 set a 1\nat 0 set b 1\nrun 50\n")
	// The working copy after reload contains the saved schematic; a
	// no-op edit re-checks it in.
	if _, err := ld.RunSchematicEntry("anna", cv, func(*schematic.Schematic) error { return nil }, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ld.RunSimulation("anna", cv, stim, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	// Slave data continuity: versions from before and after the reload
	// coexist.
	versions, err := ld.Lib.Versions("alu_v1", ViewSchematic)
	if err != nil || len(versions) != 3 { // seed + pre-save + post-load
		t.Fatalf("slave versions = %v, %v", versions, err)
	}
	// Sync audit stays clean across the restart.
	sync, err := ld.SlaveSyncCheck()
	if err != nil || len(sync) != 0 {
		t.Fatalf("sync problems after reload: %v, %v", sync, err)
	}
}

func TestLoadHybridErrors(t *testing.T) {
	if _, err := LoadHybrid(t.TempDir()); err == nil {
		t.Fatal("load of empty dir")
	}
	// A library but no master directory.
	w := newHW(t, jcf.Release30)
	dir := filepath.Dir(w.h.StageDir())
	if _, err := LoadHybrid(dir); err == nil {
		t.Fatal("missing master accepted")
	}
	// A directory of the older format, whose bindings sit in hybrid.json
	// beside the master, fails loudly instead of loading unbound.
	if err := w.h.Save(dir); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "hybrid.json")
	if err := os.WriteFile(old, []byte(`{"bindings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadHybrid(dir)
	if !errors.Is(err, ErrOldHybridFormat) || !strings.Contains(err.Error(), old) {
		t.Fatalf("load of an older-format dir: %v", err)
	}
}

// TestLoadHybridMissingDirCreatesNothing: loading a hybrid dir that
// does not exist fails with backend.ErrNotFound and creates neither the
// dir nor its master.
func TestLoadHybridMissingDirCreatesNothing(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := LoadHybrid(missing); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("load of a missing dir: %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("load of a missing dir left %s behind (%v)", missing, err)
	}
}

// TestOverridesAreSessionState: forced runs are counted per session, like
// the FML consistency-window counter they mirror, so a reloaded hybrid
// reports the two alike.
func TestOverridesAreSessionState(t *testing.T) {
	w := newHW(t, jcf.Release30)
	dir := filepath.Dir(w.h.StageDir())
	if err := w.h.JCF.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	// Layout before schematic entry, forced through a consistency window;
	// the run itself fails for want of schematic data.
	if _, err := w.h.RunLayoutEntry("anna", w.cv, nil, RunOpts{Force: true}); err == nil {
		t.Fatal("forced layout without data succeeded")
	}
	if w.h.Overrides() != 1 {
		t.Fatalf("Overrides = %d", w.h.Overrides())
	}
	if err := w.h.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadHybrid(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ld.Interp.Global.Lookup("jcfConsistencyWindows")
	if !ok || fmlInt(v) != ld.Overrides() {
		t.Fatalf("after reload Overrides = %d, jcfConsistencyWindows = %v", ld.Overrides(), v)
	}
}

// TestBindingCrashStates commits the master, the hybrid's one commit
// point, after each step of NewCellVersion and reloads from that state.
// Every loaded binding must be whole, the mapping must verify, and the
// new cell version must be bound exactly when its binding was committed.
func TestBindingCrashStates(t *testing.T) {
	w := newHW(t, jcf.Release30)
	h := w.h
	dir := filepath.Dir(h.StageDir())
	cell, err := h.JCF.CreateCell(w.project, "b")
	if err != nil {
		t.Fatal(err)
	}
	var cv oms.OID
	fmcadCell := FMCADCellName("b", 1)
	// The steps of NewCellVersion, one at a time.
	steps := []struct {
		name string
		run  func() error
	}{
		{"CreateCellVersion", func() (err error) {
			cv, err = h.JCF.CreateCellVersion(cell, h.DefaultFlowName(), w.team)
			return err
		}},
		{"slave cell and cellviews", func() error {
			if err := h.Lib.CreateCell(fmcadCell); err != nil {
				return err
			}
			for _, view := range boundViews {
				if err := h.Lib.CreateCellview(fmcadCell, view); err != nil {
					return err
				}
			}
			return nil
		}},
		{"BindSlaveCell", func() error { return h.JCF.BindSlaveCell(cv, fmcadCell, boundViews) }},
	}
	for i, step := range steps {
		if err := step.run(); err != nil {
			t.Fatal(err)
		}
		if err := h.JCF.Save(filepath.Join(dir, "master")); err != nil {
			t.Fatal(err)
		}
		ld, err := LoadHybrid(dir)
		if err != nil {
			t.Fatalf("after %s: %v", step.name, err)
		}
		for _, name := range ld.Bindings() {
			bcv, err := ld.CellVersionFor(name)
			if err != nil {
				t.Fatalf("after %s: %v", step.name, err)
			}
			b, err := ld.BindingFor(bcv)
			if err != nil || len(b.DesignObjects) != len(boundViews) {
				t.Fatalf("after %s: binding %s = %+v, %v", step.name, name, b, err)
			}
			for _, view := range boundViews {
				if got, err := ld.JCF.ViewTypeOf(b.DesignObjects[view]); err != nil || got != view {
					t.Fatalf("after %s: %s's %s design object has view type %q, %v", step.name, name, view, got, err)
				}
			}
		}
		if problems := ld.VerifyMapping(); len(problems) != 0 {
			t.Fatalf("after %s: mapping problems %v", step.name, problems)
		}
		for _, marked := range ld.JCF.BoundCellVersions() {
			if _, err := ld.BindingFor(marked); err != nil {
				t.Fatalf("after %s: marked cell version unbound: %v", step.name, err)
			}
		}
		if _, err := ld.BindingFor(cv); (err == nil) != (i == len(steps)-1) {
			t.Fatalf("after %s: BindingFor(new version) = %v", step.name, err)
		}
	}
}

// sameMapping fails unless got answers the mapping queries as want does.
func sameMapping(t *testing.T, when string, want, got *Hybrid) {
	t.Helper()
	names := want.Bindings()
	if fmt.Sprint(got.Bindings()) != fmt.Sprint(names) {
		t.Fatalf("%s: Bindings() = %v, want %v", when, got.Bindings(), names)
	}
	for _, name := range names {
		cv, err := want.CellVersionFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if gcv, err := got.CellVersionFor(name); err != nil || gcv != cv {
			t.Fatalf("%s: CellVersionFor(%s) = %d, %v, want %d", when, name, gcv, err, cv)
		}
		wb, err := want.BindingFor(cv)
		if err != nil {
			t.Fatal(err)
		}
		if gb, err := got.BindingFor(cv); err != nil || !reflect.DeepEqual(gb, wb) {
			t.Fatalf("%s: BindingFor(%d) = %+v, %v, want %+v", when, cv, gb, err, wb)
		}
	}
}

// treeBytes maps every path under root to its content ("" for a
// directory).
func treeBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			out[path] = ""
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFileLayoutStateDirIsRefused: a master state dir in the File
// backend's layout, where CURRENT is a file, is refused with
// backend.ErrOldFormat by every entry point that opens a state dir, and
// none of them writes to it. The upgrade the error names loads it.
func TestFileLayoutStateDirIsRefused(t *testing.T) {
	w := newHW(t, jcf.Release30)
	dir := filepath.Dir(w.h.StageDir())
	master := filepath.Join(dir, "master")
	fb, err := backend.OpenFile(master)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.h.JCF.SaveTo(fb); err != nil {
		t.Fatal(err)
	}
	before := treeBytes(t, dir)
	entries := []struct {
		name string
		run  func() error
	}{
		{"jcf.Load", func() error { _, err := jcf.Load(master); return err }},
		{"Framework.Save", func() error { return w.h.JCF.Save(master) }},
		{"LoadHybrid", func() error { _, err := LoadHybrid(dir); return err }},
		{"Hybrid.Save", func() error { return w.h.Save(dir) }},
		{"backend.OpenSegment", func() error { _, err := backend.OpenSegment(master); return err }},
	}
	for _, e := range entries {
		err := e.run()
		if !errors.Is(err, backend.ErrOldFormat) || !strings.Contains(err.Error(), "backend.OpenFile") {
			t.Errorf("%s of a file-layout dir: %v, want ErrOldFormat naming the upgrade", e.name, err)
		}
		if !reflect.DeepEqual(treeBytes(t, dir), before) {
			t.Fatalf("%s wrote to the file-layout dir", e.name)
		}
	}

	old, err := jcf.LoadFrom(fb)
	if err != nil {
		t.Fatal(err)
	}
	upgraded := filepath.Join(t.TempDir(), "master")
	seg, err := backend.OpenSegment(upgraded)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(old.SaveTo(seg), seg.Close()); err != nil {
		t.Fatal(err)
	}
	ld, err := jcf.Load(upgraded)
	if err != nil {
		t.Fatal(err)
	}
	if ld.FeedLSN() != w.h.JCF.FeedLSN() || len(ld.CheckConsistency()) != 0 {
		t.Fatalf("upgraded dir loads at feed %d, saved at %d; problems %v", ld.FeedLSN(), w.h.JCF.FeedLSN(), ld.CheckConsistency())
	}
}

// TestNewCellVersionAdoptsStrandedSlaveCell: the slave writes of a
// NewCellVersion whose master side a crash lost leave a slave cell under
// the name the reloaded master issues again. While its cellviews hold
// only their seed versions, the next NewCellVersion adopts it, creating
// the cellviews the crash left out.
func TestNewCellVersionAdoptsStrandedSlaveCell(t *testing.T) {
	for _, tc := range []struct {
		name  string
		views []string // the stranded cell's cellviews; nil: a whole NewCellVersion
	}{
		{"cell only", []string{}},
		{"one cellview", []string{ViewSchematic}},
		{"whole NewCellVersion", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newHW(t, jcf.Release30)
			dir := filepath.Dir(w.h.StageDir())
			cell, err := w.h.JCF.CreateCell(w.project, "b")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.h.Save(dir); err != nil {
				t.Fatal(err)
			}
			if tc.views == nil {
				if _, err := w.h.NewCellVersion(cell, w.h.DefaultFlowName(), w.team); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := w.h.Lib.CreateCell("b_v1"); err != nil {
					t.Fatal(err)
				}
				for _, view := range tc.views {
					if err := w.h.Lib.CreateCellview("b_v1", view); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The crash: the master's last save predates the slave writes.
			ld, err := LoadHybrid(dir)
			if err != nil {
				t.Fatal(err)
			}
			cv, err := ld.NewCellVersion(cell, ld.DefaultFlowName(), w.team)
			if err != nil {
				t.Fatal(err)
			}
			if b, err := ld.BindingFor(cv); err != nil || b.FMCADCell != "b_v1" {
				t.Fatalf("adopted binding = %+v, %v", b, err)
			}
			if problems := ld.VerifyMapping(); len(problems) != 0 {
				t.Fatalf("mapping problems after adoption: %v", problems)
			}
			if err := ld.JCF.Reserve("anna", cv); err != nil {
				t.Fatal(err)
			}
			if _, err := ld.RunSchematicEntry("anna", cv, drawHalfAdder, RunOpts{}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ld.RunSimulation("anna", cv, []byte("at 0 set a 1\nat 0 set b 1\nrun 50\n"), RunOpts{}); err != nil {
				t.Fatal(err)
			}
			if _, err := ld.RunLayoutEntry("anna", cv, nil, RunOpts{}); err != nil {
				t.Fatal(err)
			}
			if problems, err := ld.SlaveSyncCheck(); err != nil || len(problems) != 0 {
				t.Fatalf("slave sync problems %v, %v", problems, err)
			}
			if err := ld.Save(dir); err != nil {
				t.Fatal(err)
			}
			again, err := LoadHybrid(dir)
			if err != nil {
				t.Fatal(err)
			}
			sameMapping(t, "after adoption and reload", ld, again)
		})
	}
}

// TestNewCellVersionRefusesStrandedToolOutput: a stranded slave cell
// whose cellview holds a tool run's version names a design object
// version the master never kept, so NewCellVersion refuses to adopt it.
func TestNewCellVersionRefusesStrandedToolOutput(t *testing.T) {
	w := newHW(t, jcf.Release30)
	dir := filepath.Dir(w.h.StageDir())
	cell, err := w.h.JCF.CreateCell(w.project, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.h.Save(dir); err != nil {
		t.Fatal(err)
	}
	cv, err := w.h.NewCellVersion(cell, w.h.DefaultFlowName(), w.team)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.h.JCF.Reserve("anna", cv); err != nil {
		t.Fatal(err)
	}
	if _, err := w.h.RunSchematicEntry("anna", cv, drawHalfAdder, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadHybrid(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ld.NewCellVersion(cell, ld.DefaultFlowName(), w.team)
	if !errors.Is(err, fmcad.ErrExists) || !strings.Contains(err.Error(), `"b_v1"`) {
		t.Fatalf("NewCellVersion over a stranded tool output: %v, want ErrExists naming b_v1", err)
	}
	if _, err := ld.CellVersionFor("b_v1"); err == nil {
		t.Fatal("the stranded cell was bound")
	}
	if problems := ld.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("mapping problems after the refusal: %v", problems)
	}
}
