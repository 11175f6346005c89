package core

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/jcf"
	"repro/internal/oms"
	"repro/internal/otod"
)

// Feed-driven coupling synchronization.
//
// JCF's interfaces are closed (section 2.4) — the coupling layer cannot
// hook the master's internals, and before the change feed it could only
// observe the master by full scan: VerifyMapping re-verified every
// binding on every call, and a checkin that reached the master without
// going through the encapsulation wrappers (a designer driving the JCF
// desktop directly) simply never reached the FMCAD library.
//
// The change feed replaces both scans with an incremental pump: the
// Hybrid keeps a cursor into the master's feed and folds new records
// into two pieces of state —
//
//   - dirty: the set of cell versions whose Table 1 binding must be
//     re-verified (anything touching a bound cell version or design
//     object dirties it), giving VerifyMapping a fast path that
//     re-checks only what changed and answers from cache otherwise;
//   - pending: master-side checkins (DesignObjectVersion + ownership
//     link groups) not yet reflected in the slave library, which
//     SyncLibrary imports as tagged cellview versions, keeping the
//     library browsable by native FMCAD tools even for data that never
//     went through an encapsulated tool run.
//
// If the cursor falls behind the feed ring's retention window the pump
// reports it and both consumers degrade to their full-scan behaviour
// once, then resume incrementally — never silently stale.

// pendingCheckin is one master checkin awaiting library import.
type pendingCheckin struct {
	do, dov oms.OID
}

// feedSyncState is the Hybrid's coupling cursor, guarded by h.mu.
type feedSyncState struct {
	lsn      uint64               // records <= lsn are folded in
	syncLost bool                 // ring evicted past the cursor; full reconcile due
	relDoVer string               // doHasVersion schema relationship name
	relUses  string               // uses schema relationship name
	relOfVT  string               // ofViewType schema relationship name
	doToCV   map[oms.OID]oms.OID  // bound design object -> owning cell version
	dirty    map[oms.OID]bool     // cell versions whose binding needs re-verify
	cache    map[oms.OID][]string // last verification problems per cell version
	pending  []pendingCheckin     // checkins not yet imported into the library
	inFlight map[oms.OID]int      // design objects with an encapsulated run capturing
	// captured holds versions the encapsulation wrappers wrote to the
	// library themselves; the pump drops their pending entries instead
	// of letting already-imported checkins pile up for SyncLibrary to
	// tag-scan one by one.
	captured map[oms.OID]bool
}

// initFeedSync wires the cursor to the master's current feed position;
// bindings registered afterwards mark their own dirt. Caller holds h.mu.
func (h *Hybrid) initFeedSync() {
	r := func(name, from, to string) string {
		return h.JCF.Model().SchemaRelName(otod.Relationship{Name: name, From: from, To: to})
	}
	h.sync = feedSyncState{
		lsn:      h.JCF.FeedLSN(),
		relDoVer: r("hasVersion", "DesignObject", "DesignObjectVersion"),
		relUses:  r("uses", "Variant", "DesignObject"),
		relOfVT:  r("ofViewType", "DesignObject", "ViewType"),
		doToCV:   map[oms.OID]oms.OID{},
		dirty:    map[oms.OID]bool{},
		cache:    map[oms.OID][]string{},
		inFlight: map[oms.OID]int{},
		captured: map[oms.OID]bool{},
	}
}

// pumpFeedLocked folds every new master change into the binding index,
// the dirty set and the pending-import list; caller holds h.mu.
func (h *Hybrid) pumpFeedLocked() {
	h.pruneCapturedLocked()
	recs, ok := h.JCF.Changes(h.sync.lsn)
	if !ok {
		// Fell behind the ring: everything is suspect until the full
		// passes run. The cursor resumes from the current watermark —
		// records between it and the Changes call are covered by the
		// full passes too, which run after this point.
		for cv := range h.bindings {
			h.sync.dirty[cv] = true
		}
		h.sync.syncLost = true
		h.sync.lsn = h.JCF.FeedLSN()
		h.indexBindingsLocked(h.JCF.BoundCellVersions()...)
		return
	}
	if len(recs) == 0 {
		return
	}
	for _, c := range recs {
		switch c.Kind {
		case oms.ChangeLink, oms.ChangeUnlink:
			switch c.Rel {
			case h.sync.relDoVer:
				if cv, bound := h.sync.doToCV[c.From]; bound {
					h.sync.dirty[cv] = true
					if c.Kind == oms.ChangeLink {
						h.sync.pending = append(h.sync.pending, pendingCheckin{do: c.From, dov: c.To})
					}
				}
			case h.sync.relUses:
				if cv, bound := h.sync.doToCV[c.To]; bound {
					h.sync.dirty[cv] = true
				}
			case h.sync.relOfVT:
				if cv, bound := h.sync.doToCV[c.From]; bound {
					h.sync.dirty[cv] = true
				}
			}
		case oms.ChangeSet, oms.ChangeCreate, oms.ChangeDelete:
			if c.Kind == oms.ChangeSet && c.Attr == jcf.AttrSlaveCell {
				h.indexBindingsLocked(c.OID)
			}
			if _, bound := h.bindings[c.OID]; bound {
				h.sync.dirty[c.OID] = true
			}
			if cv, bound := h.sync.doToCV[c.OID]; bound {
				h.sync.dirty[cv] = true
			}
		}
	}
	h.sync.lsn = recs[len(recs)-1].LSN
	h.pruneCapturedLocked()
}

// pruneCapturedLocked drops pending entries for checkins the
// encapsulation wrappers captured (and tagged) themselves — they are
// already in the library, and letting them pile up would grow pending
// by one entry per ordinary tool run on a Hybrid that never calls
// SyncLibrary, then cost a tag scan each to skip. Caller holds h.mu.
func (h *Hybrid) pruneCapturedLocked() {
	if len(h.sync.captured) == 0 || len(h.sync.pending) == 0 {
		return
	}
	kept := h.sync.pending[:0]
	for _, p := range h.sync.pending {
		if h.sync.captured[p.dov] {
			delete(h.sync.captured, p.dov)
			continue
		}
		kept = append(kept, p)
	}
	h.sync.pending = kept
}

// captureBegin/captureEnd bracket an encapsulated tool run's capture of
// a design object (slave checkin → master checkin → version tag), so
// SyncLibrary never races the tag write and double-imports the version.
func (h *Hybrid) captureBegin(do oms.OID) {
	h.mu.Lock()
	h.sync.inFlight[do]++
	h.mu.Unlock()
}

func (h *Hybrid) captureEnd(do oms.OID) {
	h.mu.Lock()
	if h.sync.inFlight[do]--; h.sync.inFlight[do] <= 0 {
		delete(h.sync.inFlight, do)
	}
	h.mu.Unlock()
}

// markCaptured records that the encapsulation wrote this version to the
// library itself (tag included); the next pump drops its pending entry.
func (h *Hybrid) markCaptured(dov oms.OID) {
	h.mu.Lock()
	h.sync.captured[dov] = true
	h.mu.Unlock()
}

// importJob is one pending checkin resolved to its slave-side address.
type importJob struct {
	p    pendingCheckin
	cell string
	view string
}

// SyncLibrary imports master-side checkins the slave library has not
// seen — design data that entered the OMS database directly through the
// JCF desktop rather than through an encapsulated tool run — as fresh,
// PropJCFVersion-tagged cellview versions, keeping the library
// browsable by native FMCAD tools. It returns how many versions were
// imported. The pump is incremental (feed-driven); after a retention
// overrun it reconciles every bound design object once, then resumes
// incrementally.
//
// Locking mirrors verify(): the work list is collected under h.mu, the
// library file I/O runs outside it (cross-probe lookups and tool-run
// brackets never stall behind an import), and syncLibMu serializes
// whole runs so two concurrent syncs cannot double-import a version.
func (h *Hybrid) SyncLibrary() (int, error) {
	h.syncLibMu.Lock()
	defer h.syncLibMu.Unlock()

	h.mu.Lock()
	h.pumpFeedLocked()
	if h.sync.syncLost {
		h.sync.pending = h.sync.pending[:0]
		for _, b := range h.bindings {
			for _, do := range b.DesignObjects {
				for _, dov := range h.JCF.DesignObjectVersions(do) {
					h.sync.pending = append(h.sync.pending, pendingCheckin{do: do, dov: dov})
				}
			}
		}
		h.sync.syncLost = false
	}
	var jobs []importJob
	var retained []pendingCheckin
	for _, p := range h.sync.pending {
		if h.sync.inFlight[p.do] > 0 {
			// An encapsulated run is mid-capture on this design object;
			// its tag is on the way. Revisit on the next sync.
			retained = append(retained, p)
			continue
		}
		cv, bound := h.sync.doToCV[p.do]
		if !bound {
			continue
		}
		b := h.bindings[cv]
		view := ""
		for v, do := range b.DesignObjects {
			if do == p.do {
				view = v
				break
			}
		}
		if view == "" {
			continue
		}
		jobs = append(jobs, importJob{p: p, cell: b.FMCADCell, view: view})
	}
	h.sync.pending = retained
	h.mu.Unlock()

	// A capture starting now cannot collide with these jobs: its version
	// does not exist yet, so it cannot be in the collected list.
	imported := 0
	var failed []pendingCheckin
	var firstErr error
	for _, j := range jobs {
		if firstErr != nil {
			failed = append(failed, j.p) // untried; retry next run
			continue
		}
		if !h.JCF.VersionExists(j.p.dov) {
			// The version was deleted after its checkin hit the
			// feed: nothing to import, and retrying forever would
			// wedge the queue behind it.
			continue
		}
		done, retryable, err := h.importVersion(j.cell, j.view, j.p.dov)
		if done {
			imported++
		}
		if err != nil {
			if retryable && h.JCF.VersionExists(j.p.dov) {
				failed = append(failed, j.p)
			}
			firstErr = err
		}
	}
	if len(failed) > 0 {
		h.mu.Lock()
		h.sync.pending = append(h.sync.pending, failed...)
		h.mu.Unlock()
	}
	return imported, firstErr
}

// importVersion writes one master version into the slave library unless
// a tagged slave version already exists (the encapsulated runs tag
// everything they capture, making the import idempotent). Runs without
// h.mu held. `retryable` reports whether a retry can succeed AND is
// safe: a SetProperty failure after a committed checkin is surfaced but
// NOT retryable — retrying would import a duplicate version; the
// untagged one is visible to the SlaveSyncCheck audit instead.
func (h *Hybrid) importVersion(cell, view string, dov oms.OID) (done, retryable bool, err error) {
	versions, err := h.Lib.Versions(cell, view)
	if err != nil {
		return false, true, fmt.Errorf("core: sync library: %w", err)
	}
	want := fmt.Sprintf("%d", dov)
	for _, v := range versions {
		tag, ok, err := h.Lib.GetProperty(cell, view, v, PropJCFVersion)
		if err != nil {
			return false, true, fmt.Errorf("core: sync library: %w", err)
		}
		if ok && tag == want {
			return false, false, nil // already reflected
		}
	}
	// Stage the master bytes and check them into the slave, tagged.
	staged := h.stagePath("feed-sync", cell+"."+view)
	if err := h.JCF.ExportVersionData(dov, staged); err != nil {
		return false, true, fmt.Errorf("core: sync library: %w", err)
	}
	data, err := os.ReadFile(staged)
	if err != nil {
		return false, true, fmt.Errorf("core: sync library: %w", err)
	}
	session := h.Lib.NewSession("feed-sync")
	wf, err := session.Checkout(cell, view)
	if err != nil {
		return false, true, fmt.Errorf("core: sync library: %w", err)
	}
	if err := os.WriteFile(wf.Path, data, 0o644); err != nil {
		return false, true, abortSlave(session, wf, fmt.Errorf("core: sync library: %w", err))
	}
	slaveV, err := session.Checkin(wf)
	if err != nil {
		// Release the cellview lock the checkout took, or every later
		// retry (and every encapsulated run on this cellview) would
		// fail its checkout against a lock nobody holds anymore.
		return false, true, abortSlave(session, wf, fmt.Errorf("core: sync library: %w", err))
	}
	if err := h.Lib.SetProperty(cell, view, slaveV, PropJCFVersion, want); err != nil {
		return true, false, fmt.Errorf("core: sync library: version %d imported but untagged: %w", slaveV, err)
	}
	return true, false, nil
}

// VerifyMapping checks the live mapping against Table 1 — the feed-
// driven fast path: only bindings dirtied by master changes since the
// last call (plus bindings never verified) are re-checked; everything
// else answers from the per-binding cache. Slave-side drift without any
// master-side traffic is invisible to the feed by construction; use
// SlaveSyncCheck, which audits the slave, when the library is suspect.
func (h *Hybrid) VerifyMapping() []string {
	return h.verify(false)
}

// verify collects the re-check set under the lock, runs the actual
// verification (slave library and master queries — real I/O) OUTSIDE
// it so the cross-probe hot paths sharing h.mu never stall behind a
// rescan, then folds results back into the cache. Dirt is cleared at
// collection time: a binding re-dirtied while we verify stays marked
// and is re-checked on the next call.
func (h *Hybrid) verify(all bool) []string {
	type job struct {
		b         Binding
		inverseOK bool
	}
	h.mu.Lock()
	h.pumpFeedLocked()
	var jobs []job
	for cv, b := range h.bindings {
		_, cached := h.sync.cache[cv]
		if all || !cached || h.sync.dirty[cv] {
			got, ok := h.byCell[b.FMCADCell]
			jobs = append(jobs, job{b: b, inverseOK: ok && got == cv})
			delete(h.sync.dirty, cv)
		}
	}
	h.mu.Unlock()

	results := make(map[oms.OID][]string, len(jobs))
	for _, j := range jobs {
		// A binding's contents are immutable once indexed, so reading
		// them without the lock is safe.
		results[j.b.CellVersion] = h.verifyBinding(j.b, j.inverseOK)
	}

	h.mu.Lock()
	for cv, ps := range results {
		h.sync.cache[cv] = ps
	}
	var problems []string
	for _, ps := range h.sync.cache {
		problems = append(problems, ps...)
	}
	h.mu.Unlock()
	sort.Strings(problems)
	return problems
}

// verifyBinding checks one binding against Table 1: the inverse map
// must round-trip (checked by the caller under the lock and passed in)
// and the slave cell's cellviews must match the design objects' view
// types. Runs without h.mu held.
func (h *Hybrid) verifyBinding(b Binding, inverseOK bool) []string {
	var problems []string
	if !inverseOK {
		problems = append(problems, fmt.Sprintf("inverse mapping broken for %s", b.FMCADCell))
	}
	views, err := h.Lib.Cellviews(b.FMCADCell)
	if err != nil {
		return append(problems, fmt.Sprintf("slave cell %s missing: %v", b.FMCADCell, err))
	}
	viewSet := map[string]bool{}
	for _, v := range views {
		viewSet[v] = true
	}
	for view, do := range b.DesignObjects {
		if !viewSet[view] {
			problems = append(problems, fmt.Sprintf("slave cell %s lacks cellview %s", b.FMCADCell, view))
		}
		if got, err := h.JCF.ViewTypeOf(do); err != nil {
			problems = append(problems, fmt.Sprintf("design object %d has no view type: %v", do, err))
		} else if got != view {
			problems = append(problems, fmt.Sprintf("design object %d has view type %q, want %q", do, got, view))
		}
	}
	return problems
}

// StartToolNotifications bridges the master's change feed onto the
// hybrid's ITC bus (jcf.Topic* messages), so the integrated tools hear
// about checkins, publications, reservations and variant derivations in
// commit order — the notification path the closed JCF interfaces never
// offered. The caller stops the returned notifier when done.
func (h *Hybrid) StartToolNotifications() (*jcf.Notifier, error) {
	return h.JCF.StartNotifier(h.Bus)
}
