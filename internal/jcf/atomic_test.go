package jcf

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oms"
)

// Regression tests for the check-then-act windows and partial-failure
// orphans the batched (Store.Apply) rewiring closes. See ISSUE 3.

// TestCheckInDataInducedFailureNoOrphans is the acceptance-criteria test:
// 1000 checkins whose copy-in is induced to fail (missing source file)
// must leave zero orphaned DesignObjectVersions — the old op-by-op path
// created and linked the version before discovering the file was gone.
func TestCheckInDataInducedFailureNoOrphans(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	// One good checkin so the failures below would also exercise the
	// derivation-link step if they ever got that far.
	src := filepath.Join(t.TempDir(), "alu.sch")
	if err := os.WriteFile(src, []byte("version-1 netlist"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.CheckInData("anna", do, src); err != nil {
		t.Fatal(err)
	}
	versionsBefore := len(fw.DesignObjectVersions(do))
	countBefore := fw.store.Count("DesignObjectVersion")

	for i := 0; i < 1000; i++ {
		if _, err := fw.CheckInData("anna", do, "/no/such/design/file"); err == nil {
			t.Fatal("checkin of a missing file succeeded")
		}
	}
	if got := len(fw.DesignObjectVersions(do)); got != versionsBefore {
		t.Fatalf("design object grew %d orphan versions", got-versionsBefore)
	}
	if got := fw.store.Count("DesignObjectVersion"); got != countBefore {
		t.Fatalf("store grew %d orphan DesignObjectVersions", got-countBefore)
	}
	// The next good checkin numbers contiguously — the 1000 failures
	// consumed no version numbers.
	dov, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.VersionNum(dov); got != int64(versionsBefore)+1 {
		t.Fatalf("next version num = %d, want %d", got, versionsBefore+1)
	}
}

// TestCheckInDataDerivesFromNewest: every checkin after the first links
// derived from the highest-numbered earlier version and takes the next
// number, with the checkins of several design objects interleaved.
func TestCheckInDataDerivesFromNewest(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var dos []oms.OID
	for i := 0; i < 3; i++ {
		do, err := fw.CreateDesignObject(v1, fmt.Sprintf("alu-%d", i), w.schVT)
		if err != nil {
			t.Fatal(err)
		}
		dos = append(dos, do)
	}
	byNum := map[oms.OID][]oms.OID{}
	for i := 0; i < 150; i++ {
		do := dos[(i*7)%len(dos)]
		src := filepath.Join(dir, "src")
		if err := os.WriteFile(src, []byte(fmt.Sprintf("netlist %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		dov, err := fw.CheckInData("anna", do, src)
		if err != nil {
			t.Fatal(err)
		}
		prev := byNum[do]
		if got, want := fw.VersionNum(dov), int64(len(prev)+1); got != want {
			t.Fatalf("checkin %d: version num %d, want %d", i, got, want)
		}
		from := fw.DerivedFrom(dov)
		switch {
		case len(prev) == 0 && len(from) != 0:
			t.Fatalf("checkin %d: first version derived from %v", i, from)
		case len(prev) > 0 && (len(from) != 1 || from[0] != prev[len(prev)-1]):
			t.Fatalf("checkin %d: derived from %v, want the newest version %d", i, from, prev[len(prev)-1])
		}
		byNum[do] = append(prev, dov)
		if latest := fw.LatestVersion(do); latest != dov {
			t.Fatalf("checkin %d: LatestVersion = %d, want %d", i, latest, dov)
		}
	}
	// DesignObjectVersions answers in OID order without sorting; that
	// must be version-number order.
	for _, do := range dos {
		got := fw.DesignObjectVersions(do)
		sorted := slices.Clone(got)
		slices.SortStableFunc(sorted, func(a, b oms.OID) int { return cmp.Compare(fw.VersionNum(a), fw.VersionNum(b)) })
		if !slices.Equal(got, sorted) || !slices.Equal(got, byNum[do]) {
			t.Fatalf("design object %d: DesignObjectVersions = %v, sorted by num %v, checked in %v", do, got, sorted, byNum[do])
		}
	}
}

// TestCheckInDataVsPublishRace closes the reservation window: CheckInData
// must commit its batch only while the user still holds the workspace
// reservation. Designer goroutines hammer checkins while the owner keeps
// publishing (which releases the reservation) and re-reserving. The
// invariant a torn window would break: every DesignObjectVersion that
// exists carries its data blob, and there are exactly as many versions as
// successful checkins. Run under -race by `make check`.
func TestCheckInDataVsPublishRace(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "alu.sch")
	if err := os.WriteFile(src, []byte("netlist"), 0o644); err != nil {
		t.Fatal(err)
	}
	var successes atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, err := fw.CheckInData("anna", do, src)
				switch {
				case err == nil:
					successes.Add(1)
				case errors.Is(err, ErrNotReserved):
					// The window where anna does not hold the workspace.
				default:
					t.Errorf("checkin: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := fw.Reserve("anna", w.cv); err != nil {
			t.Errorf("reserve: %v", err)
			break
		}
		if err := fw.Publish("anna", w.cv); err != nil {
			t.Errorf("publish: %v", err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	versions := fw.DesignObjectVersions(do)
	if int64(len(versions)) != successes.Load() {
		t.Fatalf("%d versions exist but %d checkins succeeded", len(versions), successes.Load())
	}
	for i, dov := range versions {
		size, err := fw.DataSize(dov)
		if err != nil {
			t.Fatal(err)
		}
		if size == 0 {
			t.Fatalf("version %d (num %d) has no data blob: committed outside the reservation", dov, fw.VersionNum(dov))
		}
		if got := fw.VersionNum(dov); got != int64(i)+1 {
			t.Fatalf("version numbering torn: position %d holds num %d", i, got)
		}
	}
}

// TestCreateCellVersionInducedFailureAtomic feeds CreateCellVersion a
// team OID that is not a Team object: the attachedTeam link fails
// mid-sequence, and the whole batch — version, ownership link, flow link,
// initial variant — must vanish. The old path left a version linked to
// the cell with a flow but no team and no variant.
func TestCreateCellVersionInducedFailureAtomic(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	before := len(fw.CellVersions(w.cell))
	cvCount := fw.store.Count("CellVersion")
	varCount := fw.store.Count("Variant")
	anna, err := fw.User("anna")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.CreateCellVersion(w.cell, "asic", anna); err == nil {
		t.Fatal("cell version with a User as team accepted")
	}
	if got := len(fw.CellVersions(w.cell)); got != before {
		t.Fatalf("cell kept %d half-wired versions", got-before)
	}
	if got := fw.store.Count("CellVersion"); got != cvCount {
		t.Fatalf("store grew %d orphan CellVersions", got-cvCount)
	}
	if got := fw.store.Count("Variant"); got != varCount {
		t.Fatalf("store grew %d orphan Variants", got-varCount)
	}
	// Numbering is unaffected by the failed attempt.
	cv2, err := fw.CreateCellVersion(w.cell, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.CellVersionNum(cv2); got != int64(before)+1 {
		t.Fatalf("next version num = %d, want %d", got, before+1)
	}
}

// TestCreateDesignObjectInducedFailureAtomic: a non-ViewType target for
// ofViewType must not leave an untyped DesignObject attached to the
// variant.
func TestCreateDesignObjectInducedFailureAtomic(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	doCount := fw.store.Count("DesignObject")
	if _, err := fw.CreateDesignObject(v1, "alu-sch", w.team); err == nil {
		t.Fatal("design object with a Team as view type accepted")
	}
	if got := fw.store.Count("DesignObject"); got != doCount {
		t.Fatalf("store grew %d orphan DesignObjects", got-doCount)
	}
	if got := len(fw.DesignObjects(v1)); got != 0 {
		t.Fatalf("variant uses %d half-wired design objects", got)
	}
}

// TestDeriveVariantConcurrent: concurrent derives from one variant must
// each land fully — distinct numbers, a precedes edge, and the complete
// shared design-object set — because the whole derivation is one batch.
func TestDeriveVariantConcurrent(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	for _, name := range []string{"alu-sch", "alu-lay"} {
		if _, err := fw.CreateDesignObject(v1, name, w.schVT); err != nil {
			t.Fatal(err)
		}
	}
	const derives = 8
	var wg sync.WaitGroup
	got := make([]oms.OID, derives)
	for i := 0; i < derives; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := fw.DeriveVariant(v1)
			if err != nil {
				t.Errorf("derive %d: %v", i, err)
				return
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if vs := fw.Variants(w.cv); len(vs) != derives+1 {
		t.Fatalf("cell version has %d variants, want %d", len(vs), derives+1)
	}
	seen := map[int64]bool{}
	for _, v := range got {
		num := fw.VariantNum(v)
		if seen[num] {
			t.Fatalf("duplicate variant number %d", num)
		}
		seen[num] = true
		if fw.VariantPredecessor(v) != v1 {
			t.Fatalf("variant %d lost its precedes edge", v)
		}
		if dos := fw.DesignObjects(v); len(dos) != 2 {
			t.Fatalf("variant %d shares %d design objects, want 2", v, len(dos))
		}
	}
	if succ := fw.VariantSuccessors(v1); len(succ) != derives {
		t.Fatalf("v1 has %d successors, want %d", len(succ), derives)
	}
}

// TestNamedResourceConcurrentSameName: goroutines racing to create one
// user, one project, one flow and one cell of a project by the same name
// leave exactly one object of each; every other call fails with
// ErrExists. named() and CreateCell hold numMu across their duplicate
// check and their Apply, so two callers can no longer both pass the
// check.
func TestNamedResourceConcurrentSameName(t *testing.T) {
	const goroutines, rounds = 8, 100
	for round := 0; round < rounds; round++ {
		fw, err := New(Release30)
		if err != nil {
			t.Fatal(err)
		}
		team, err := fw.CreateTeam("vlsi")
		if err != nil {
			t.Fatal(err)
		}
		core, err := fw.CreateProject("core", team)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			class, name string
			create      func() error
		}{
			{"User", "anna", func() error { _, err := fw.CreateUser("anna"); return err }},
			{"Project", "chip1", func() error { _, err := fw.CreateProject("chip1", team); return err }},
			{"Flow", "asic", func() error { _, err := fw.RegisterFlow(testFlow(t)); return err }},
			{"Cell", "alu", func() error { _, err := fw.CreateCell(core, "alu"); return err }},
		} {
			start := make(chan struct{})
			var wins atomic.Int32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					switch err := c.create(); {
					case err == nil:
						wins.Add(1)
					case !errors.Is(err, ErrExists):
						t.Errorf("%s: %v", c.class, err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if got := len(fw.store.FindByAttr(c.class, "name", oms.S(c.name))); wins.Load() != 1 || got != 1 {
				t.Fatalf("round %d: %d %s creations succeeded, %d objects exist; want 1 and 1", round, wins.Load(), c.class, got)
			}
		}
	}
}
