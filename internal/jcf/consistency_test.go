package jcf

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/itc"
	"repro/internal/oms"
)

// TestCheckConsistencyCached: the feed-driven check answers from cache
// across irrelevant traffic, invalidates on relevant changes, and the
// full sweep (refreshConsistencyLocked) always re-sweeps.
func TestCheckConsistencyCached(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	if probs := fw.CheckConsistency(); len(probs) != 0 {
		t.Fatalf("fresh world inconsistent: %v", probs)
	}

	// Whitebox: plant a sentinel in the cache. A cache hit returns it; a
	// re-sweep erases it.
	sentinel := Inconsistency{Kind: "sentinel", Detail: "cache probe"}
	fw.cc.mu.Lock()
	fw.cc.cache = []Inconsistency{sentinel}
	fw.cc.mu.Unlock()

	// Irrelevant traffic: users, reservations, checkin-style blob sets —
	// none of it touches the checked relationships.
	for i := 0; i < 5; i++ {
		if _, err := fw.CreateUser(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if got := fw.CheckConsistency(); len(got) != 1 || got[0].Kind != "sentinel" {
		t.Fatalf("irrelevant traffic invalidated the cache: %v", got)
	}

	// A real checkin (DesignObjectVersion create + doHasVersion link +
	// blob + derivation) must stay on the cached path too — the whole
	// point of the relevance filter. The design object setup itself IS
	// relevant (uses link), so re-seed the sentinel after it.
	variants := fw.Variants(w.cv)
	do, err := fw.CreateDesignObject(variants[0], "cc-probe", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.CheckConsistency(); len(got) != 0 {
		t.Fatalf("design object setup: %v", got)
	}
	fw.cc.mu.Lock()
	fw.cc.cache = []Inconsistency{sentinel}
	fw.cc.mu.Unlock()
	src := filepath.Join(t.TempDir(), "probe.sch")
	if err := os.WriteFile(src, []byte("netlist"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fw.CheckInData("anna", do, src); err != nil {
			t.Fatal(err)
		}
	}
	if got := fw.CheckConsistency(); len(got) != 1 || got[0].Kind != "sentinel" {
		t.Fatalf("checkins invalidated the consistency cache: %v", got)
	}

	// The full sweep bypasses the cache regardless.
	fw.cc.mu.Lock()
	full := fw.refreshConsistencyLocked()
	fw.cc.mu.Unlock()
	if len(full) != 0 {
		t.Fatalf("full sweep: %v", full)
	}

	// Relevant traffic: a second cell version (cellHasVersion link) must
	// invalidate; re-plant the sentinel to prove the sweep ran.
	fw.cc.mu.Lock()
	fw.cc.cache = []Inconsistency{sentinel}
	fw.cc.mu.Unlock()
	cv2, err := fw.CreateCellVersion(w.cell, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.CheckConsistency(); len(got) != 0 {
		t.Fatalf("relevant traffic served from cache: %v", got)
	}

	// And a real problem is reported through the cached path: an older
	// version in a hierarchy while a newer one is published.
	parentCell, err := fw.CreateCell(w.project, "chip-top")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := fw.CreateCellVersion(parentCell, "asic", w.team)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SubmitHierarchy(parent, w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", cv2); err != nil {
		t.Fatal(err)
	}
	if err := fw.Publish("anna", cv2); err != nil {
		t.Fatal(err)
	}
	got := fw.CheckConsistency()
	if len(got) != 1 || got[0].Kind != "stale-hierarchy" {
		t.Fatalf("stale hierarchy not detected: %v", got)
	}
	// Steady state: the verdict keeps answering from cache.
	if again := fw.CheckConsistency(); len(again) != 1 || again[0].Kind != "stale-hierarchy" {
		t.Fatalf("cached verdict drifted: %v", again)
	}
}

// TestCheckConsistencyReportsVersionOrder: a design object whose
// versions, in OID order, are not numbered 1..n breaks the invariant the
// newest-version lookup relies on, and the check reports it — through
// the cached path, whether a version's number was rewritten or a
// version was unlinked from the middle of the history.
func TestCheckConsistencyReportsVersionOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(fw *Framework, do oms.OID, vs []oms.OID) error
	}{
		{"renumbered", func(fw *Framework, do oms.OID, vs []oms.OID) error {
			_, err := applyOne(fw.store, func(b *oms.Batch) { b.Set(vs[1], "num", oms.I(7)) })
			return err
		}},
		{"unlinked", func(fw *Framework, do oms.OID, vs []oms.OID) error {
			_, err := applyOne(fw.store, func(b *oms.Batch) { b.Unlink(fw.rel.doHasVersion, do, vs[1]) })
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, Release30)
			fw := w.fw
			do, err := fw.CreateDesignObject(fw.Variants(w.cv)[0], "alu-sch", w.schVT)
			if err != nil {
				t.Fatal(err)
			}
			if err := fw.Reserve("anna", w.cv); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for i := 0; i < 4; i++ {
				if _, err := checkInBytes(t, fw, dir, "anna", do, []byte(fmt.Sprintf("netlist %d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if got := fw.CheckConsistency(); len(got) != 0 {
				t.Fatalf("consistent history reported: %v", got)
			}
			if err := tc.corrupt(fw, do, fw.DesignObjectVersions(do)); err != nil {
				t.Fatal(err)
			}
			got := fw.CheckConsistency()
			if len(got) != 1 || got[0].Kind != "version-order" {
				t.Fatalf("CheckConsistency = %v, want one version-order report", got)
			}
			if !strings.Contains(got[0].Detail, fmt.Sprintf("design object %d", do)) {
				t.Fatalf("report %q does not name design object %d", got[0].Detail, do)
			}
		})
	}
}

// TestNotifierStatsCountsVetoes: a bus handler refusing a framework
// event is no longer silent — the loss shows up in Notifier.Stats.
func TestNotifierStatsCountsVetoes(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw
	bus := itc.NewBus()
	bus.Subscribe(TopicPublish, "grumpy", func(m itc.Message) error {
		return fmt.Errorf("vetoed")
	})
	reservations := make(chan itc.Message, 8)
	bus.Subscribe(TopicReservation, "listener", func(m itc.Message) error {
		reservations <- m
		return nil
	})
	n, err := fw.StartNotifier(bus)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := fw.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	// Publish commits publish+release as one group; wait for the release
	// notification so the vetoed publish has certainly been attempted.
	deadline := time.After(10 * time.Second)
	for got := 0; got < 2; {
		select {
		case <-reservations:
			got++
		case <-deadline:
			t.Fatal("reservation notifications never arrived")
		}
	}
	// The listener hears the release before the bridge counts it as
	// published, so wait for the count rather than read it at once.
	waitFor(t, "the release counted as published", func() bool { return n.Stats().Published >= 2 })
	s := n.Stats()
	if s.Vetoed != 1 {
		t.Fatalf("vetoed = %d, want 1 (stats %+v)", s.Vetoed, s)
	}
	if s.Published < 2 {
		t.Fatalf("published = %d, want >= 2", s.Published)
	}
}
