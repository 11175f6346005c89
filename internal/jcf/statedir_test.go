package jcf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/oms/backend"
)

// openFDs returns the targets of this process's open file descriptors,
// read from /proc/self/fd.
func openFDs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var out []string
	for _, e := range entries {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil {
			continue // the descriptor ReadDir itself used, closed by now
		}
		out = append(out, target)
	}
	return out
}

// TestSaveDirRoundTripClosesFiles: Save(dir), a mutation, Save(dir)
// again and Load(dir) give back the saved store, and no Save leaves a
// file of the state dir open.
func TestSaveDirRoundTripClosesFiles(t *testing.T) {
	w := newWorld(t, Release30)
	// The first file operations of a process open runtime descriptors
	// (the poller) that stay; a save to another dir opens them first.
	if err := w.fw.Save(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	before := len(openFDs(t))
	dir := t.TempDir()
	if err := w.fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := w.fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	fds := openFDs(t)
	for _, target := range fds {
		if strings.HasPrefix(target, dir+string(filepath.Separator)) {
			t.Fatalf("Save left %s open", target)
		}
	}
	if len(fds) > before {
		t.Fatalf("%d descriptors open after two saves, %d before: %v", len(fds), before, fds)
	}
	ld, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if holder, held := ld.ReservedBy(w.cv); !held || holder != "anna" {
		t.Fatalf("the second save's reservation did not load: %q, %t", holder, held)
	}
	seg, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadsEqual(t, w.fw, seg)
}

// TestFileBackendSavesAreDifferential: SaveTo anchors on its own
// commit through any backend, so a second save through a File backend
// appends a delta to the first one's base, and the two load back as
// the live store.
func TestFileBackendSavesAreDifferential(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	fb, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SaveTo(fb); err != nil {
		t.Fatal(err)
	}
	populate(t, fw, w, "x", 1)
	if err := fw.SaveTo(fb); err != nil {
		t.Fatal(err)
	}
	m, err := backend.LoadManifest(fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Deltas) != 1 || m.BaseEpoch != 1 || m.Epoch != 2 {
		t.Fatalf("second save through a File backend is not a delta over the first: %+v", m)
	}
	assertLoadsEqual(t, fw, fb)
}
