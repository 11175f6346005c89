package jcf

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/flow"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/otod"
)

// Framework persistence: one crash-consistent cut over the OMS database
// and the framework metadata around it — registered flows, workspace
// reservations, typed hierarchies and shares — committed through a
// pluggable storage backend.
//
// The failure this design removes: the old Save wrote oms.json, *then*
// captured framework state, so a designer reserving or linking in the
// gap produced a framework.json referencing OIDs absent from oms.json.
// Now both halves are captured under a single cut (fw.mu held across the
// store's stripe-locked Snapshot) and committed by ONE atomic manifest
// Put; Load refuses any pair that is not mutually consistent.
//
// Layout through the backend (file backend shown; the segment backend
// stores the same names in its write-ahead log):
//
//	CURRENT          commit manifest: epoch, payload names, checksums.
//	                 Its atomic replacement is the commit point.
//	oms@<epoch>        the object database snapshot payload
//	framework@<epoch>  release, flows, reservations, 4.0 extension state
//
// Older epochs are garbage-collected after a successful commit.
//
// Flow enactments are not persisted: like the original, activity
// execution state lives with the session, while all design data and
// metadata live in the database.

// persistedFlow serializes one registered flow.
type persistedFlow struct {
	Name       string              `json:"name"`
	Activities []flow.Activity     `json:"activities"`
	Precedes   map[string][]string `json:"precedes"`
	OID        oms.OID             `json:"oid"`
}

// persistedState is the framework payload content.
type persistedState struct {
	Release      Release                          `json:"release"`
	Flows        []persistedFlow                  `json:"flows"`
	Reservations map[oms.OID]string               `json:"reservations"`
	TypedHier    map[oms.OID]map[string][]oms.OID `json:"typed_hier,omitempty"`
	Shares       map[oms.OID][]oms.OID            `json:"shares,omitempty"`
}

// The CURRENT commit manifest — the one object whose atomic replacement
// commits a (framework, oms) snapshot pair, with the base + delta-chain
// bookkeeping of differential commits — is a shared format now: it lives
// in the backend package (backend.Manifest) so the replication publisher
// can ship the same commit stream this layer writes.

const (
	omsPrefix   = "oms@"
	fwPrefix    = "framework@"
	deltaPrefix = "delta@"

	// defaultMaxDeltaChain bounds how many deltas may accumulate before
	// Save compacts back to a full base snapshot: load time and GC reach
	// grow with the chain, so it is periodically reset.
	defaultMaxDeltaChain = 64
)

// Save persists the framework into dir (created if needed) through the
// default atomic-rename file backend. See SaveTo.
func (fw *Framework) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	b, err := backend.OpenFile(dir)
	if err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	return fw.SaveTo(b)
}

// SaveTo persists the framework through an arbitrary storage backend.
//
// The capture is one consistent cut: the framework maps are copied and
// the store snapshot is taken while fw.mu is held, so every OID the
// framework state references exists in the store payload. Designers are
// stalled only for that capture — encoding and the backend writes run
// outside all locks. The pair becomes visible atomically when the
// CURRENT manifest is Put; a crash at any earlier point leaves the
// previous epoch fully intact.
//
// On a DeltaCapable backend (the segment/WAL backend), a SaveTo that
// follows a commit this same framework instance made writes only the
// change-feed suffix since that commit — a delta payload of O(what
// changed), not O(store) — and the manifest binds base epoch + delta
// chain. The framework metadata payload is always written in full (it
// is small). Save falls back to a full base snapshot whenever the
// anchor is missing (first save, a different backend, a freshly loaded
// framework), the feed ring has evicted part of the needed suffix, or
// the chain has reached its compaction bound.
func (fw *Framework) SaveTo(b backend.Backend) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	// One saver at a time per framework: the epoch read-modify-write and
	// the old-epoch GC below are not meant to race with themselves.
	// Designers never take saveMu, so they are unaffected.
	fw.saveMu.Lock()
	defer fw.saveMu.Unlock()

	epoch := int64(1)
	var prev backend.Manifest
	havePrev := false
	if m, err := backend.LoadManifest(b); err == nil {
		prev, havePrev = m, true
		epoch = m.Epoch + 1
	} else if !errors.Is(err, backend.ErrNotFound) {
		return fmt.Errorf("jcf: save: reading previous manifest: %w", err)
	}

	maxChain := fw.maxDeltaChain
	if maxChain <= 0 {
		maxChain = defaultMaxDeltaChain
	}
	dc, deltaCapable := b.(backend.DeltaCapable)
	wantDelta := deltaCapable && dc.SupportsDeltas() &&
		havePrev && fw.lastSaveTo == b && fw.lastSaveEpoch == prev.Epoch &&
		prev.FeedLSN == fw.lastSaveLSN &&
		len(prev.Deltas) < maxChain

	// --- the consistent cut -------------------------------------------
	fw.mu.RLock()
	state := persistedState{
		Release:      fw.release,
		Reservations: map[oms.OID]string{},
		TypedHier:    map[oms.OID]map[string][]oms.OID{},
		Shares:       map[oms.OID][]oms.OID{},
	}
	for cv, user := range fw.reservations {
		state.Reservations[cv] = user
	}
	for p, m := range fw.typedHier {
		cp := map[string][]oms.OID{}
		for vt, kids := range m {
			cp[vt] = append([]oms.OID(nil), kids...)
		}
		state.TypedHier[p] = cp
	}
	for p, cells := range fw.shares {
		state.Shares[p] = append([]oms.OID(nil), cells...)
	}
	flows := make(map[string]*flow.Flow, len(fw.flows))
	flowOIDs := make(map[string]oms.OID, len(fw.flowOIDs))
	for n, f := range fw.flows {
		flows[n] = f
		flowOIDs[n] = fw.flowOIDs[n]
	}
	// The store cut is taken while fw.mu is still held: anything the
	// captured framework state references was created strictly before
	// this point, so it is inside the cut. Lock order fw.mu -> stripes is
	// the one Publish already uses. The differential cut reads the
	// change-feed suffix instead of snapshotting — same ordering
	// argument: every OID the captured maps reference committed (and
	// published) before this read, so the suffix up to the current feed
	// watermark covers it.
	var snap *oms.Snapshot
	var delta []oms.Change
	var deltaTo uint64
	if wantDelta {
		recs, ok := fw.store.Changes(fw.lastSaveLSN)
		if ok {
			delta, deltaTo = recs, fw.lastSaveLSN
			if len(recs) > 0 {
				deltaTo = recs[len(recs)-1].LSN
			}
		} else {
			// The ring evicted part of the suffix (the framework fell
			// more than the retention window behind): full snapshot.
			wantDelta = false
		}
	}
	if !wantDelta {
		// The RLock-spanning Snapshot is the point of SaveTo: the cut
		// must be consistent with the flow/config tables read above.
		//lint:allow holdblock SaveTo needs a store cut consistent with the framework tables it read under the same RLock
		snap = fw.store.Snapshot()
	}
	fw.mu.RUnlock()
	// --- everything below runs outside all framework/store locks ------

	for _, name := range sortedFlowNames(flows) {
		f := flows[name]
		pf := persistedFlow{Name: name, Precedes: map[string][]string{}, OID: flowOIDs[name]}
		for _, an := range f.Activities() {
			a, err := f.Activity(an)
			if err != nil {
				return err
			}
			pf.Activities = append(pf.Activities, a)
			if succ := f.Successors(an); len(succ) > 0 {
				pf.Precedes[an] = succ
			}
		}
		state.Flows = append(state.Flows, pf)
	}
	fwPayload, err := json.MarshalIndent(&state, "", " ")
	if err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}

	fwName := fmt.Sprintf("%s%d", fwPrefix, epoch)
	var manifest backend.Manifest
	switch {
	case wantDelta:
		// Differential commit: the base payload and earlier deltas are
		// already durable; only the new suffix (if any) is written.
		manifest = backend.Manifest{
			Epoch:        epoch,
			OMS:          prev.OMS,
			Framework:    fwName,
			OMSSum:       prev.OMSSum,
			FrameworkSum: backend.SHA256Hex(fwPayload),
			BaseEpoch:    prev.BaseEpoch,
			BaseLSN:      prev.BaseLSN,
			Deltas:       append([]backend.DeltaRef(nil), prev.Deltas...),
			FeedLSN:      deltaTo,
		}
		if len(delta) > 0 {
			deltaPayload, err := oms.EncodeChanges(delta)
			if err != nil {
				return fmt.Errorf("jcf: save: %w", err)
			}
			deltaName := fmt.Sprintf("%s%d", deltaPrefix, epoch)
			if err := b.Put(deltaName, deltaPayload); err != nil {
				return fmt.Errorf("jcf: save: %w", err)
			}
			manifest.Deltas = append(manifest.Deltas, backend.DeltaRef{
				Name:    deltaName,
				Sum:     backend.SHA256Hex(deltaPayload),
				FromLSN: fw.lastSaveLSN,
				ToLSN:   deltaTo,
			})
		}
	default:
		// Full commit: a fresh base snapshot, empty delta chain.
		omsPayload, err := snap.EncodeJSON()
		if err != nil {
			return fmt.Errorf("jcf: save: %w", err)
		}
		omsName := fmt.Sprintf("%s%d", omsPrefix, epoch)
		if err := b.Put(omsName, omsPayload); err != nil {
			return fmt.Errorf("jcf: save: %w", err)
		}
		manifest = backend.Manifest{
			Epoch:        epoch,
			OMS:          omsName,
			Framework:    fwName,
			OMSSum:       backend.SHA256Hex(omsPayload),
			FrameworkSum: backend.SHA256Hex(fwPayload),
			BaseEpoch:    epoch,
			BaseLSN:      snap.LSN(),
			FeedLSN:      snap.LSN(),
		}
	}
	if err := b.Put(fwName, fwPayload); err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	// The commit point: one atomic Put flips readers to the new pair.
	if err := backend.PutManifest(b, manifest); err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	fw.lastSaveTo, fw.lastSaveEpoch, fw.lastSaveLSN = b, epoch, manifest.FeedLSN
	var prevRef *backend.Manifest
	if havePrev {
		prevRef = &prev
	}
	gcOldEpochs(b, &manifest, prevRef)
	return nil
}

// gcOldEpochs drops superseded snapshot payloads. Everything the new
// manifest references (base snapshot, delta chain, framework payload)
// is retained, and so is everything the immediately preceding manifest
// referenced: a concurrent LoadFrom that read the previous CURRENT
// moments before this commit must still find the payloads it names.
// Best effort: a failure leaves stale-but-unreferenced names behind,
// never a broken commit.
func gcOldEpochs(b backend.Backend, committed, prev *backend.Manifest) {
	names, err := b.List()
	if err != nil {
		return
	}
	keep := map[string]bool{}
	for _, m := range []*backend.Manifest{committed, prev} {
		if m == nil {
			continue
		}
		for _, n := range m.PayloadNames() {
			keep[n] = true
		}
	}
	for _, n := range names {
		if keep[n] {
			continue
		}
		if !strings.HasPrefix(n, omsPrefix) && !strings.HasPrefix(n, fwPrefix) &&
			!strings.HasPrefix(n, deltaPrefix) {
			continue
		}
		_ = b.Delete(n) //lint:allow noerrdrop epoch GC is best-effort; a failed delete must not fail the committed save
	}
}

func sortedFlowNames(m map[string]*flow.Flow) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	// Insertion-order independence: sort for deterministic files.
	sort.Strings(out)
	return out
}

// Load restores a framework saved by Save from a state directory.
func Load(dir string) (*Framework, error) {
	b, err := backend.OpenFile(dir)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	return LoadFrom(b)
}

// LoadFrom restores a framework from a storage backend. The manifest's
// checksums are verified and the (framework, oms) pair is validated for
// mutual consistency — a torn pair (one that references objects the
// store payload does not contain) is rejected rather than resurrected.
//
// A differential commit is restored by decoding the base snapshot and
// replaying the manifest's delta chain in order; every payload is
// checksum-verified and the chain's LSN ranges must be contiguous.
//
// A backend without a CURRENT manifest holds no committed state; the
// error wraps backend.ErrNotFound.
func LoadFrom(b backend.Backend) (*Framework, error) {
	manifest, err := backend.LoadManifest(b)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	fwPayload, err := b.Get(manifest.Framework)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: manifest epoch %d: %w", manifest.Epoch, err)
	}
	omsPayload, err := b.Get(manifest.OMS)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: manifest epoch %d: %w", manifest.Epoch, err)
	}
	if got := backend.SHA256Hex(fwPayload); got != manifest.FrameworkSum {
		return nil, fmt.Errorf("jcf: load: %s checksum mismatch (corrupt payload)", manifest.Framework)
	}
	if got := backend.SHA256Hex(omsPayload); got != manifest.OMSSum {
		return nil, fmt.Errorf("jcf: load: %s checksum mismatch (corrupt payload)", manifest.OMS)
	}
	store, err := decodeStore(omsPayload)
	if err != nil {
		return nil, err
	}
	// The chain must attach to the base's cut and stay contiguous — a
	// gap replays incomplete history, which is refused as loudly as a
	// torn pair.
	prevTo := manifest.BaseLSN
	for _, d := range manifest.Deltas {
		payload, err := b.Get(d.Name)
		if err != nil {
			return nil, fmt.Errorf("jcf: load: manifest epoch %d: %w", manifest.Epoch, err)
		}
		if got := backend.SHA256Hex(payload); got != d.Sum {
			return nil, fmt.Errorf("jcf: load: %s checksum mismatch (corrupt delta)", d.Name)
		}
		if d.FromLSN != prevTo {
			return nil, fmt.Errorf("jcf: load: delta chain broken at %s: starts at %d, expected %d",
				d.Name, d.FromLSN, prevTo)
		}
		recs, err := oms.DecodeChanges(payload)
		if err != nil {
			return nil, fmt.Errorf("jcf: load: %s: %w", d.Name, err)
		}
		if err := store.ReplayChanges(recs); err != nil {
			return nil, fmt.Errorf("jcf: load: %s: %w", d.Name, err)
		}
		prevTo = d.ToLSN
	}
	return decodeFramework(fwPayload, store)
}

// decodeStore rebuilds the OMS store from a base snapshot payload.
func decodeStore(omsPayload []byte) (*oms.Store, error) {
	schema, err := otod.JCFModel().Schema()
	if err != nil {
		return nil, err
	}
	store, err := oms.DecodeSnapshot(omsPayload, schema)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	return store, nil
}

// decodeFramework rebuilds the framework metadata around a restored
// store and validates their mutual consistency.
func decodeFramework(fwPayload []byte, store *oms.Store) (*Framework, error) {
	var state persistedState
	if err := json.Unmarshal(fwPayload, &state); err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	fw, err := New(state.Release)
	if err != nil {
		return nil, err
	}
	fw.store = store

	for _, pf := range state.Flows {
		f := flow.New(pf.Name)
		for _, a := range pf.Activities {
			if err := f.AddActivity(a); err != nil {
				return nil, fmt.Errorf("jcf: load flow %q: %w", pf.Name, err)
			}
		}
		for before, afters := range pf.Precedes {
			for _, after := range afters {
				if err := f.AddPrecedes(before, after); err != nil {
					return nil, fmt.Errorf("jcf: load flow %q: %w", pf.Name, err)
				}
			}
		}
		if err := f.Freeze(); err != nil {
			return nil, fmt.Errorf("jcf: load flow %q: %w", pf.Name, err)
		}
		fw.mu.Lock()
		fw.flows[pf.Name] = f
		fw.flowOIDs[pf.Name] = pf.OID
		fw.mu.Unlock()
	}
	fw.mu.Lock()
	for cv, user := range state.Reservations {
		fw.reservations[cv] = user
	}
	if state.TypedHier != nil {
		fw.typedHier = state.TypedHier
	}
	if state.Shares != nil {
		fw.shares = state.Shares
	}
	fw.mu.Unlock()
	if err := fw.validateLoadedState(); err != nil {
		return nil, err
	}
	return fw, nil
}

// validateLoadedState cross-checks the restored framework metadata
// against the restored store: every OID the framework half references
// must resolve. A failure means the pair was written by something other
// than a single-cut Save (e.g. hand-edited or mixed epochs) — exactly
// the torn snapshot Load must refuse to resurrect.
func (fw *Framework) validateLoadedState() error {
	torn := func(format string, args ...any) error {
		return fmt.Errorf("jcf: load: torn snapshot pair: %s", fmt.Sprintf(format, args...))
	}
	for cv, user := range fw.reservations {
		if !fw.store.Exists(cv) {
			return torn("reservation by %q names missing cell version %d", user, cv)
		}
	}
	for name, oid := range fw.flowOIDs {
		if oid != oms.InvalidOID && !fw.store.Exists(oid) {
			return torn("flow %q names missing object %d", name, oid)
		}
	}
	for p, m := range fw.typedHier {
		if !fw.store.Exists(p) {
			return torn("typed hierarchy names missing parent %d", p)
		}
		for vt, kids := range m {
			for _, k := range kids {
				if !fw.store.Exists(k) {
					return torn("typed hierarchy %d/%s names missing child %d", p, vt, k)
				}
			}
		}
	}
	for p, cells := range fw.shares {
		if !fw.store.Exists(p) {
			return torn("share names missing project %d", p)
		}
		for _, c := range cells {
			if !fw.store.Exists(c) {
				return torn("project %d shares missing cell %d", p, c)
			}
		}
	}
	return nil
}
