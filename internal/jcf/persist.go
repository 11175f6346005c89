package jcf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
)

// Framework persistence: one crash-consistent cut over the OMS
// database, committed through a pluggable storage backend. The database
// is the framework's only record — registered flows, workspace
// reservations, typed hierarchies and shares included — so the cut is
// the store's own: a stripe-consistent Snapshot for a full commit, an
// Overlay of the objects changed since the full base for a compacting
// one, or the change-feed suffix since the previous commit for a
// differential one. No framework lock is taken, and a load has nothing
// to cross-validate.
//
// Layout by backend name (a state dir, as Save writes it, is a segment
// log holding these names in its frames):
//
//	CURRENT            commit manifest, compact JSON: epoch, payload
//	                   names, checksums, the base's and the overlay's
//	                   cut LSNs and the feed LSN the epoch ends at. Its
//	                   atomic Put is the commit point.
//	oms@<epoch>        a full base snapshot payload in oms's binary
//	                   snapshot format, or an overlay over the current
//	                   base in oms's binary overlay format; the manifest
//	                   names which is which
//	delta@<epoch>      the change-feed suffix a differential commit adds,
//	                   as oms's binary change records
//	framework@<epoch>  the release header: the framework's release level,
//	                   its only field
//
// A committed epoch is so a full base, at most one overlay over it, and
// a chain of deltas from the overlay's cut (or the base's, without
// one). Every save writes framework@<epoch>, CURRENT and exactly one of
// a delta, an overlay or a base.
//
// A framework keeps the manifest it last committed, and its encoded
// bytes, in memory: that commit is the anchor of the next differential
// save, valid while the backend's CURRENT still holds exactly those
// bytes. A save over its own commit so reads CURRENT but decodes
// nothing, and any other CURRENT — a foreign writer's, or one a failed
// Put left behind — is decoded and followed by a full base.
//
// Older epochs are garbage-collected after a successful commit. LSNs
// survive a restart: a loaded store's feed continues at the manifest's
// FeedLSN (see LoadFrom).
//
// This is the only layout LoadFrom reads. A state dir written in an
// older one — JSON bases or deltas, JWAL segment records, a release
// header that also carries flows, reservations, typed hierarchies or
// shares, a non-empty base at LSN 0 — is refused with
// backend.ErrOldFormat, and the refusal writes nothing.
//
// Flow enactments are not persisted: like the original, activity
// execution state lives with the session, while all design data and
// metadata live in the database.

// persistedState is the framework@<epoch> release header.
type persistedState struct {
	Release Release `json:"release"`
}

// The CURRENT commit manifest — the one object whose atomic replacement
// commits an epoch's payloads, with the base + delta-chain bookkeeping of
// differential commits — is a shared format: it lives
// in the backend package (backend.Manifest) so the replication publisher
// can ship the same commit stream this layer writes.

const (
	omsPrefix   = "oms@"
	fwPrefix    = "framework@"
	deltaPrefix = "delta@"

	// defaultMaxDeltaChain bounds how many deltas may accumulate before
	// Save compacts them into a checkpoint (an overlay or a full base
	// snapshot): every save's manifest and GC work, and load time, grow
	// with the chain, so it is periodically reset.
	defaultMaxDeltaChain = 64
)

// Save persists the framework into the state dir dir, a segment log
// (created if needed), and closes the log's file. Each call opens a new
// backend, so each writes a full base; to save repeatedly, keep one
// backend.OpenSegment and call SaveTo. One writing process per state
// dir. A dir in the File layout is refused (see backend.OpenSegment).
func (fw *Framework) Save(dir string) error {
	b, err := backend.OpenSegment(dir)
	if err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	return errors.Join(fw.SaveTo(b), b.Close())
}

// SaveTo persists the framework through an arbitrary storage backend.
//
// The cut is the store's: a stripe-consistent snapshot or overlay, or
// the change-feed suffix since the previous commit. Designers are
// stalled only for the capture, never for encoding or backend writes.
// The commit becomes visible atomically when the CURRENT manifest is
// Put; a crash at any earlier point leaves the previous epoch fully
// intact.
//
// A SaveTo that follows a commit this same framework instance made
// through the same backend — the backend's CURRENT holds exactly the
// bytes it committed — writes only the change-feed suffix since that
// commit — a delta payload of O(what changed), not O(store) — and the
// manifest binds the checkpoint and the delta chain. The release
// header is written with every commit.
//
// When the chain reaches its compaction bound, the save writes a
// checkpoint instead and empties the chain. The checkpoint is an
// overlay — the objects changed since the full base's cut — while the
// overlays written over that base, this one included, stay smaller
// than the base itself; once they would not, or the feed ring no longer
// holds every record since the base's cut, it is a new full base. A
// full base is also written whenever the anchor is missing (first save,
// a different backend, a freshly loaded framework, a CURRENT this
// instance did not write) or the ring has evicted part of the delta's
// suffix.
func (fw *Framework) SaveTo(b backend.Backend) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	// One saver at a time per framework: the epoch read-modify-write and
	// the old-epoch GC below are not meant to race with themselves.
	// Designers never take saveMu, so they are unaffected.
	fw.saveMu.Lock()
	defer fw.saveMu.Unlock()
	start := obs.Now()

	var prev backend.Manifest
	havePrev, anchored := false, false
	raw, err := b.Get(backend.ManifestKey)
	switch {
	case err == nil && fw.lastSaveTo == b && bytes.Equal(raw, fw.committedCURRENT):
		// CURRENT is still this instance's last commit: its manifest
		// is in memory, so nothing is decoded.
		prev, havePrev, anchored = fw.committed, true, true
	case err == nil:
		if prev, err = backend.DecodeManifest(raw); err != nil {
			return fmt.Errorf("jcf: save: reading previous manifest: %w", err)
		}
		havePrev = true
	case !errors.Is(err, backend.ErrNotFound):
		return fmt.Errorf("jcf: save: reading previous manifest: %w", err)
	}
	epoch := prev.Epoch + 1

	maxChain := fw.maxDeltaChain
	if maxChain <= 0 {
		maxChain = defaultMaxDeltaChain
	}
	wantDelta := anchored && len(prev.Deltas) < maxChain

	var delta []oms.Change
	var deltaTo uint64
	if wantDelta {
		recs, ok := fw.store.Changes(prev.FeedLSN)
		if ok {
			delta, deltaTo = recs, prev.FeedLSN
			if len(recs) > 0 {
				deltaTo = recs[len(recs)-1].LSN
			}
		} else {
			// The ring evicted part of the suffix (the framework fell
			// more than the retention window behind): full snapshot.
			wantDelta, anchored = false, false
		}
	}
	if fw.releaseHdr == nil {
		hdr, err := json.MarshalIndent(persistedState{Release: fw.release}, "", " ")
		if err != nil {
			return fmt.Errorf("jcf: save: %w", err)
		}
		fw.releaseHdr, fw.releaseSum = hdr, backend.SHA256Hex(hdr)
	}

	fwName := fmt.Sprintf("%s%d", fwPrefix, epoch)
	var manifest backend.Manifest
	var ckpt checkpoint
	if wantDelta {
		// Differential commit: the checkpoint and earlier deltas are
		// already durable; only the new suffix (if any) is written.
		// Appending may reuse prev.Deltas' spare capacity: prev keeps
		// its own length, so it never sees the new entry.
		manifest = prev
		manifest.FeedLSN = deltaTo
		if len(delta) > 0 {
			deltaPayload := oms.EncodeChanges(delta)
			deltaName := fmt.Sprintf("%s%d", deltaPrefix, epoch)
			if err := b.Put(deltaName, deltaPayload); err != nil {
				return fmt.Errorf("jcf: save: %w", err)
			}
			manifest.Deltas = append(manifest.Deltas, backend.DeltaRef{
				Name:    deltaName,
				Sum:     backend.SHA256Hex(deltaPayload),
				FromLSN: prev.FeedLSN,
				ToLSN:   deltaTo,
			})
		}
	} else {
		ckpt = fw.captureCheckpoint(anchored, prev.BaseLSN)
		name := fmt.Sprintf("%s%d", omsPrefix, epoch)
		if err := b.Put(name, ckpt.payload); err != nil {
			return fmt.Errorf("jcf: save: %w", err)
		}
		sum := backend.SHA256Hex(ckpt.payload)
		if ckpt.overlay {
			// Overlay commit: the full base stays, the chain restarts at
			// the overlay's cut.
			manifest = prev
			manifest.Overlay, manifest.OverlaySum, manifest.OverlayLSN = name, sum, ckpt.lsn
		} else {
			manifest = backend.Manifest{OMS: name, OMSSum: sum, BaseEpoch: epoch, BaseLSN: ckpt.lsn}
		}
		manifest.Deltas = nil
		manifest.FeedLSN = ckpt.lsn
	}
	manifest.Epoch = epoch
	manifest.Framework, manifest.FrameworkSum = fwName, fw.releaseSum
	if err := b.Put(fwName, fw.releaseHdr); err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	current, err := backend.EncodeManifest(&manifest)
	if err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	// The commit point: one atomic Put flips readers to the new pair.
	// A failed Put may still have written CURRENT; the anchor stays the
	// previous commit, so the next save then sees other bytes and
	// writes a full base.
	if err := b.Put(backend.ManifestKey, current); err != nil {
		return fmt.Errorf("jcf: save: %w", err)
	}
	fw.lastSaveTo, fw.committed, fw.committedCURRENT = b, manifest, current
	fw.metrics.durableLSN.Update(int64(manifest.FeedLSN))
	if ckpt.payload != nil {
		if ckpt.overlay {
			fw.overlayBytes += len(ckpt.payload)
			fw.metrics.checkpointOverlay.Inc()
		} else {
			fw.baseBytes, fw.overlayBytes = len(ckpt.payload), 0
			fw.metrics.checkpointFull.Inc()
		}
		fw.metrics.checkpointBytes.Add(int64(len(ckpt.payload)))
	}
	var prevRef *backend.Manifest
	if havePrev {
		prevRef = &prev
	}
	gcOldEpochs(b, &manifest, prevRef)
	fw.metrics.save.Since(start)
	return nil
}

// checkpoint is an encoded base or overlay and the LSN it is cut at.
type checkpoint struct {
	payload []byte
	lsn     uint64
	overlay bool
}

// captureCheckpoint takes the checkpoint a compacting save writes. When
// the save is anchored on this framework's previous commit, it is an
// overlay on that commit's full base, cut at baseLSN, as long as the
// overlays written over the base, this one included, stay smaller than
// the base: past that point rewriting the base costs less than carrying
// the overlay on, the ski-rental rule, so the budget needs no tuning
// constant. Otherwise, and when the ring no longer holds every record
// since the base's cut, it is a full base snapshot.
func (fw *Framework) captureCheckpoint(anchored bool, baseLSN uint64) checkpoint {
	if anchored {
		if ov, ok := fw.store.Overlay(baseLSN); ok {
			if p := ov.Encode(); fw.overlayBytes+len(p) < fw.baseBytes {
				return checkpoint{payload: p, lsn: ov.LSN(), overlay: true}
			}
		}
	}
	snap := fw.store.Snapshot()
	return checkpoint{payload: snap.Encode(), lsn: snap.LSN()}
}

// gcOldEpochs drops superseded snapshot payloads. Everything the new
// manifest references (base snapshot, overlay, delta chain, framework
// payload) is retained, and so is everything the immediately preceding
// manifest referenced: a concurrent LoadFrom that read the previous
// CURRENT moments before this commit must still find the payloads it
// names.
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

// Load restores a framework saved by Save from a state directory. A
// directory that does not exist holds no committed state: the error
// wraps backend.ErrNotFound, and nothing is created. A dir in the File
// layout is refused with backend.ErrOldFormat.
func Load(dir string) (*Framework, error) {
	if _, err := os.Stat(dir); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			err = fmt.Errorf("%s: %w", dir, backend.ErrNotFound)
		}
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	b, err := backend.OpenSegment(dir)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	return LoadFrom(b)
}

// LoadFrom restores a framework from a storage backend. The committed
// chain is read through backend.ReadChain, which verifies every
// checksum and the delta chain's LSN contiguity. A release header with
// any field besides the release is an older format and is refused with
// backend.ErrOldFormat, as are the older payload formats (see the
// layout above).
//
// The store is restored the way a replica installs a bootstrap: the
// base snapshot, folded with its overlay (oms.MergeCheckpoint), at its
// cut (ResetFromSnapshot), then each delta
// republished at its own LSNs (ApplyReplicated). The loaded feed so
// sits at the manifest's FeedLSN, and new commits continue the saved
// LSN sequence — differential saves, Watch consumers and replicas of
// the loaded store line up with what was saved.
//
// A backend without a CURRENT manifest holds no committed state; the
// error wraps backend.ErrNotFound.
func LoadFrom(b backend.Backend) (*Framework, error) {
	c, err := backend.ReadChain(b)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	state, err := decodeReleaseHeader(c.Framework)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	fw, err := New(state.Release)
	if err != nil {
		return nil, err
	}
	base, err := oms.MergeCheckpoint(c.Base, c.Overlay)
	if err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	if err := fw.store.ResetFromSnapshot(base, c.Manifest.CutLSN()); err != nil {
		return nil, fmt.Errorf("jcf: load: %w", err)
	}
	for i, payload := range c.Deltas {
		name := c.Manifest.Deltas[i].Name
		recs, err := oms.DecodeChanges(payload)
		if err != nil {
			return nil, fmt.Errorf("jcf: load: %s: %w", name, err)
		}
		if err := fw.store.ApplyReplicated(recs); err != nil {
			return nil, fmt.Errorf("jcf: load: %s: %w", name, err)
		}
	}
	if got := fw.store.FeedLSN(); got != c.Manifest.FeedLSN {
		return nil, fmt.Errorf("jcf: load: delta records end at %d, manifest feed at %d", got, c.Manifest.FeedLSN)
	}
	return fw, nil
}

// decodeReleaseHeader decodes a framework@<epoch> payload strictly. A
// header written before the database held the framework's metadata
// also carries flows, reservations, typed hierarchies and shares; any
// field but the release is so ErrOldFormat.
func decodeReleaseHeader(data []byte) (persistedState, error) {
	var state persistedState
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return state, err
	}
	for name := range fields {
		if name != "release" {
			return state, fmt.Errorf("release header field %q: %w", name, backend.ErrOldFormat)
		}
	}
	return state, json.Unmarshal(data, &state)
}
