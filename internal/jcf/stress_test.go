package jcf

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oms"
)

// TestSaveCrashConsistencyUnderLoad: Framework.Save runs in a loop while
// designer goroutines create cells, derive versions, reserve workspaces
// and link hierarchies against the same framework. Every save must Load,
// and every reservation it holds must name a registered user. A
// reservation names a cell version of the loaded store by construction:
// it is that cell version's reservedBy attribute. Run under -race by the
// `make check` gate.
func TestSaveCrashConsistencyUnderLoad(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	const designers = 4
	team := w.team
	for d := 0; d < designers; d++ {
		name := fmt.Sprintf("designer%d", d)
		uid, err := fw.CreateUser(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.AddMember(team, uid); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for d := 0; d < designers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			user := fmt.Sprintf("designer%d", d)
			var prevCV oms.OID
			for i := 0; !stop.Load(); i++ {
				cell, err := fw.CreateCell(w.project, fmt.Sprintf("c-%d-%d", d, i))
				if err != nil {
					t.Errorf("designer %d: create cell: %v", d, err)
					return
				}
				cv, err := fw.CreateCellVersion(cell, "asic", team)
				if err != nil {
					t.Errorf("designer %d: create cell version: %v", d, err)
					return
				}
				if err := fw.Reserve(user, cv); err != nil {
					t.Errorf("designer %d: reserve: %v", d, err)
					return
				}
				if prevCV != 0 {
					// Link traffic: the new version contains the previous
					// one (a growing per-designer hierarchy).
					if err := fw.SubmitHierarchy(cv, prevCV); err != nil {
						t.Errorf("designer %d: hierarchy: %v", d, err)
						return
					}
				}
				prevCV = cv
			}
		}(d)
	}

	base := t.TempDir()
	const saves = 8
	for i := 0; i < saves; i++ {
		dir := filepath.Join(base, strconv.Itoa(i))
		if err := fw.Save(dir); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("save %d: %v", i, err)
		}
		ld, err := Load(dir)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("load of save %d: %v", i, err)
		}
		if err := checkReservations(ld); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("save %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestDeriveConfigVersionConcurrent is the regression test for the
// duplicate-number race: DeriveConfigVersion's count-then-create now
// runs under numMu (like cell version and variant numbering), so
// concurrent derives never allocate the same number. Only one derive
// per predecessor can succeed — each config version has at most one
// successor — and since the fix a losing derive retracts its version
// instead of leaving a duplicate-numbered one attached.
func TestDeriveConfigVersionConcurrent(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	cfg, cfgV1, err := fw.CreateConfiguration(w.cv, "golden")
	if err != nil {
		t.Fatal(err)
	}
	const derives = 16
	var wg sync.WaitGroup
	var wins atomic.Int64
	for i := 0; i < derives; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := fw.DeriveConfigVersion(cfgV1); err == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d concurrent derives from one version succeeded, want exactly 1", wins.Load())
	}
	versions := fw.ConfigVersions(cfg)
	if len(versions) != 2 { // v1 + the single winner; losers left nothing
		t.Fatalf("config has %d versions, want 2 (losers must retract)", len(versions))
	}
	seen := map[int64]oms.OID{}
	for _, v := range versions {
		num := fw.store.GetInt(v, "num")
		if other, dup := seen[num]; dup {
			t.Fatalf("config versions %d and %d share number %d", other, v, num)
		}
		seen[num] = v
	}
	// A follow-up derive from the new tip keeps numbering strictly
	// increasing even across the gaps retracted losers may leave.
	tip := versions[len(versions)-1]
	tipNum := fw.store.GetInt(tip, "num")
	v3, err := fw.DeriveConfigVersion(tip)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.store.GetInt(v3, "num"); got != tipNum+1 {
		t.Fatalf("next derived num = %d, want %d", got, tipNum+1)
	}
}

// checkReservations reads every reservation of a loaded framework through
// ReservedBy over its store's cell versions. Each names a cell version of
// that store by construction; its holder must be a user of the same cut.
func checkReservations(ld *Framework) error {
	for _, cv := range ld.store.All("CellVersion") {
		if user, held := ld.ReservedBy(cv); held {
			if _, err := ld.User(user); err != nil {
				return fmt.Errorf("reservation of cell version %d by %q: %w", cv, user, err)
			}
		}
	}
	return nil
}
