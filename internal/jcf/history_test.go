package jcf

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/oms"
)

// Tests that keep a checkin's and a publish's cost tracking the work
// done rather than the design object's history. Run under -race by
// `make stress-atomic` and `make stress-blob`.

// historyPayload is version i's design data: every eighth version is
// large enough to spill into the CAS (when one is attached), the rest
// stay inline.
func historyPayload(i int) []byte {
	if i%8 == 7 {
		return bytes.Repeat([]byte(fmt.Sprintf("spilled %d ", i)), 16)
	}
	return []byte(fmt.Sprintf("netlist %d", i))
}

// historyCell creates a cell version of w.cell with one design object,
// checks in the given number of design-data versions of it as anna,
// and leaves the cell version reserved by anna.
func historyCell(t *testing.T, w *world, versions int) (cv, do oms.OID) {
	t.Helper()
	fw := w.fw
	cv, err := fw.CreateCellVersion(w.cell, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	do, err = fw.CreateDesignObject(fw.Variants(cv)[0], fmt.Sprintf("alu-sch-%d", versions), w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", cv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < versions; i++ {
		if _, err := checkInBytes(t, fw, dir, "anna", do, historyPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WaitBlobDurable(cv); err != nil {
		t.Fatal(err)
	}
	return cv, do
}

// TestCheckInDataOpsFlatInHistory: one checkin costs the same number of
// store operations after 8 earlier versions as after 512 — finding the
// predecessor and the next number no longer reads every version.
func TestCheckInDataOpsFlatInHistory(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	ops := map[int]int64{}
	for _, history := range []int{8, 512} {
		_, do := historyCell(t, w, history)
		before := fw.MetadataOps()
		dov, err := checkInBytes(t, fw, t.TempDir(), "anna", do, historyPayload(history))
		if err != nil {
			t.Fatal(err)
		}
		ops[history] = fw.MetadataOps() - before
		if got := fw.VersionNum(dov); got != int64(history+1) {
			t.Fatalf("history %d: new version numbered %d", history, got)
		}
	}
	if ops[8] != ops[512] {
		t.Fatalf("one CheckInData: %d store ops at history 8, %d at history 512", ops[8], ops[512])
	}
}

// TestPublishAllocsFlatInHistory: a Publish allocates as often over 512
// versions as over 8. The blob-durability gate still probes every
// version's data and checks every ref (one in eight versions spills),
// but copies no inline design data and sorts nothing to do it.
func TestPublishAllocsFlatInHistory(t *testing.T) {
	w, _ := newBlobWorld(t)
	fw := w.fw
	allocs := map[int]float64{}
	for _, history := range []int{8, 512} {
		cv, _ := historyCell(t, w, history)
		if err := fw.Publish("anna", cv); err != nil {
			t.Fatal(err)
		}
		allocs[history] = testing.AllocsPerRun(50, func() {
			if err := fw.Reserve("anna", cv); err != nil {
				t.Fatal(err)
			}
			if err := fw.Publish("anna", cv); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[8] != allocs[512] {
		t.Fatalf("Reserve+Publish: %v allocations at history 8, %v at history 512", allocs[8], allocs[512])
	}
}

// TestPublishGateCoversOldVersions: the gate walks every version, not
// just the newest. A ref left dangling by a crash in the first,
// unpublished version — behind hundreds of inline versions — still
// makes Publish refuse after the state is reloaded.
func TestPublishGateCoversOldVersions(t *testing.T) {
	w, be := newBlobWorld(t)
	fw := w.fw
	do, err := fw.CreateDesignObject(fw.Variants(w.cv)[0], "alu-lay", w.layVT)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := bytes.Repeat([]byte("old and lost "), 64)
	first, err := checkInBytes(t, fw, dir, "anna", do, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := checkInBytes(t, fw, dir, "anna", do, []byte(fmt.Sprintf("inline %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WaitBlobDurable(w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.SaveTo(be); err != nil {
		t.Fatal(err)
	}
	ref, ok := fw.store.GetBlobRef(first, "data")
	if !ok {
		t.Fatal("first version's data did not spill")
	}
	r, err := ref.AsBlobRef()
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Delete(r.Key()); err != nil {
		t.Fatal(err)
	}
	fw2, err := LoadFrom(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.EnableBlobStore(be, blobSpillAt); err != nil {
		t.Fatalf("unpublished dangling ref must not fail load: %v", err)
	}
	err = fw2.Publish("anna", w.cv)
	if err == nil {
		t.Fatal("published a cell version whose first design-data version is not durable")
	}
	if want := fmt.Sprintf("version %d references missing", first); !strings.Contains(err.Error(), want) {
		t.Fatalf("publish error = %v, want %q", err, want)
	}
}

// TestBlobLogicalOutCountsHandedOutBytes: publishing probes every
// version's data but hands no design bytes out, so LogicalOut stays put
// however long the history; a checkout adds exactly the bytes it
// writes, inline or spilled.
func TestBlobLogicalOutCountsHandedOutBytes(t *testing.T) {
	w, _ := newBlobWorld(t)
	fw := w.fw
	do, err := fw.CreateDesignObject(fw.Variants(w.cv)[0], "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := func() int64 { return fw.BlobStats().LogicalOut }
	start := out()
	checkInPublish := func(data []byte) oms.OID {
		t.Helper()
		if err := fw.Reserve("anna", w.cv); err != nil {
			t.Fatal(err)
		}
		dov, err := checkInBytes(t, fw, dir, "anna", do, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.Publish("anna", w.cv); err != nil {
			t.Fatal(err)
		}
		return dov
	}
	var inline oms.OID
	for i := 0; i < 20; i++ {
		inline = checkInPublish(bytes.Repeat([]byte{'a' + byte(i)}, 40))
	}
	if got := out() - start; got != 0 {
		t.Fatalf("20 publishes without a checkout counted %d bytes as read out", got)
	}
	spilled := checkInPublish(bytes.Repeat([]byte("spilled "), 512))
	for _, c := range []struct {
		dov  oms.OID
		size int64
	}{{inline, 40}, {spilled, 8 * 512}} {
		before := out()
		if err := fw.CheckOutData("bert", c.dov, filepath.Join(dir, "out")); err != nil {
			t.Fatal(err)
		}
		if got := out() - before; got != c.size {
			t.Fatalf("checkout of version %d counted %d bytes, want %d", c.dov, got, c.size)
		}
	}
}
