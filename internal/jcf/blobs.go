package jcf

import (
	"fmt"

	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
)

// Content-addressed design data (ISSUE 9).
//
// With a blob store enabled, CheckInData becomes a two-stage pipeline:
// the blob uploads asynchronously (digest computed up front, bytes
// written by the store's bounded worker pool) while the metadata batch —
// version, links, and the ~40-byte ref — commits immediately. Publish is
// the durability gate: it blocks until every upload for the cell version
// has drained and refuses to publish if one failed, so a crash before
// blob durability can never leave a *published* version pointing at a
// missing blob. An unpublished version with a dangling ref is the
// documented crash window; load-time verification tolerates it, and the
// liveness sweep collects the orphaned bytes.

// blobUpload is one registered async upload (guarded by fw.upMu).
// release drops the GC pin PutAsync took before any backend write; it is
// set once at registration and called by CheckInData after the metadata
// batch has resolved, so the blob is pinned for the whole durable-but-
// uncommitted window.
type blobUpload struct {
	ref       blobstore.Ref
	release   func()
	err       error // valid once settled
	settled   bool  // the store's completion callback has run
	abandoned bool  // the checkin's metadata batch failed; outcome moot
}

// cvUploads is the per-cell-version async-upload ledger (guarded by
// fw.upMu). ups holds every upload that still matters to Publish:
// settled successes and settled-and-abandoned entries drop out
// immediately, so what remains is in-flight work and unretried failures.
type cvUploads struct {
	pending int // registered but not yet settled
	ups     []*blobUpload
}

// EnableBlobStore attaches a content-addressed blob store on be and
// spills checkin blobs of at least threshold bytes into it. Must be
// called during wiring — before designers run — and, on a loaded
// framework, verifies that every published design-object version's data
// ref resolves with a matching digest before accepting the store (the
// Load/bootstrap half of the durability contract). The blob namespace
// (blob-<digest>) coexists with the manifest epochs on a shared backend.
func (fw *Framework) EnableBlobStore(be backend.Backend, threshold int, opts ...blobstore.Option) error {
	if threshold <= 0 {
		return fmt.Errorf("jcf: blob spill threshold must be positive, got %d", threshold)
	}
	bs, err := blobstore.New(be, opts...)
	if err != nil {
		return err
	}
	fw.store.AttachBlobs(bs, threshold)
	fw.blobs = bs
	fw.blobThreshold = threshold
	return fw.verifyPublishedBlobs()
}

// BlobStore returns the attached blob store, or nil.
func (fw *Framework) BlobStore() *blobstore.Store { return fw.blobs }

// verifyPublishedBlobs walks every published cell version and fully
// verifies (read + digest check) each design-data ref reachable under
// it. Unpublished versions may dangle — that is exactly the crash window
// the Publish gate exists for — but a published version must resolve.
func (fw *Framework) verifyPublishedBlobs() error {
	for _, cv := range fw.store.All("CellVersion") {
		if !fw.store.GetBool(cv, "published") {
			continue
		}
		if err := fw.forEachCVDataRef(cv, func(dov oms.OID, r blobstore.Ref) error {
			if err := fw.blobs.Verify(r); err != nil {
				return fmt.Errorf("jcf: published version %d: %w", dov, err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// forEachCVDataRef visits the blob ref (if any) of every design object
// version under a cell version, in OID order. It reads each version's
// data through GetBlobRef, so versions stored inline are probed without
// copying their bytes, and it walks the version list as the store
// returns it: OID order is version order (see newestVersion), and the
// visit order does not change what is checked.
func (fw *Framework) forEachCVDataRef(cv oms.OID, fn func(dov oms.OID, r blobstore.Ref) error) error {
	for _, variant := range fw.Variants(cv) {
		for _, do := range fw.DesignObjects(variant) {
			for _, dov := range fw.store.Targets(fw.rel.doHasVersion, do) {
				v, ok := fw.store.GetBlobRef(dov, "data")
				if !ok {
					continue
				}
				r, err := v.AsBlobRef()
				if err != nil {
					return fmt.Errorf("jcf: version %d carries a malformed blob ref: %w", dov, err)
				}
				if err := fn(dov, r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// startUpload registers one pending upload on cv's ledger and hands the
// bytes to the blob store's async pool. The returned token identifies
// the upload for abandonUpload; its ref is ready for the metadata commit
// immediately, pinned against the GC sweep until the caller invokes
// up.release (which it must, exactly once, after the metadata batch has
// resolved either way).
func (fw *Framework) startUpload(cv oms.OID, data []byte) *blobUpload {
	up := &blobUpload{}
	fw.upMu.Lock()
	u := fw.uploads[cv]
	if u == nil {
		u = &cvUploads{}
		fw.uploads[cv] = u
	}
	u.pending++
	u.ups = append(u.ups, up)
	fw.metrics.ledgerDepth.Inc()
	fw.upMu.Unlock()
	up.ref, up.release = fw.blobs.PutAsync(data, func(err error) { fw.finishUpload(cv, up, err) })
	return up
}

// finishUpload settles one upload on cv's ledger and wakes publishers.
func (fw *Framework) finishUpload(cv oms.OID, up *blobUpload, err error) {
	fw.upMu.Lock()
	defer fw.upMu.Unlock()
	u := fw.uploads[cv]
	if u == nil {
		return
	}
	u.pending--
	fw.metrics.ledgerDepth.Dec()
	up.settled = true
	up.err = err
	if err == nil {
		// Content-addressed retry: a successful upload of these bytes
		// makes every earlier failure of the same digest moot.
		for _, other := range u.ups {
			if other.settled && other.err != nil && other.ref == up.ref {
				other.err = nil
			}
		}
	}
	u.compact(fw, cv)
	fw.upCond.Broadcast()
}

// abandonUpload marks an upload as no longer gating Publish — its
// metadata batch failed, so whatever the upload's outcome, no committed
// version references it.
func (fw *Framework) abandonUpload(cv oms.OID, up *blobUpload) {
	fw.upMu.Lock()
	defer fw.upMu.Unlock()
	up.abandoned = true
	if u := fw.uploads[cv]; u != nil {
		u.compact(fw, cv)
	}
	fw.upCond.Broadcast()
}

// compact drops ledger entries that no longer gate Publish (settled
// successes, abandoned-and-settled uploads) and retires the whole ledger
// once empty. Caller holds fw.upMu.
func (u *cvUploads) compact(fw *Framework, cv oms.OID) {
	kept := u.ups[:0]
	for _, up := range u.ups {
		if up.settled && (up.err == nil || up.abandoned) {
			continue
		}
		kept = append(kept, up)
	}
	u.ups = kept
	if u.pending == 0 && len(u.ups) == 0 {
		delete(fw.uploads, cv)
	}
}

// waitUploads blocks until cv has no upload in flight, then reports the
// first still-gating failure, if any. Callers must not hold fw.mu (lock
// order: fw.mu -> upMu, and Wait would park holding it).
func (fw *Framework) waitUploads(cv oms.OID) error {
	fw.upMu.Lock()
	defer fw.upMu.Unlock()
	for fw.uploads[cv] != nil && fw.uploads[cv].pending > 0 {
		fw.upCond.Wait()
	}
	if u := fw.uploads[cv]; u != nil {
		for _, up := range u.ups {
			if up.settled && up.err != nil && !up.abandoned {
				return fmt.Errorf("jcf: design data %s.. not durable: %w", up.ref.Hex()[:12], up.err)
			}
		}
	}
	return nil
}

// uploadsIdle is the Publish re-check under fw.mu: true when cv has
// nothing in flight and nothing gating.
func (fw *Framework) uploadsIdle(cv oms.OID) bool {
	fw.upMu.Lock()
	defer fw.upMu.Unlock()
	u := fw.uploads[cv]
	if u == nil {
		return true
	}
	if u.pending > 0 {
		return false
	}
	for _, up := range u.ups {
		if up.settled && up.err != nil && !up.abandoned {
			return false
		}
	}
	return true
}

// WaitBlobDurable blocks until every async upload registered for the
// cell version has settled, and reports the first still-gating failure
// — the standalone durability barrier (Publish applies it implicitly).
// A no-op without a blob store or with nothing in flight.
func (fw *Framework) WaitBlobDurable(cv oms.OID) error {
	if fw.blobs == nil {
		return nil
	}
	return fw.waitUploads(cv)
}

// SweepBlobs garbage-collects CAS entries no live ref reaches: the live
// set is every KindBlobRef value in the store; blobs mid-upload or
// pinned (headed for or through the CAS with their metadata batch still
// in flight) are never collected. Returns the number of blobs removed.
// Refcount-free by design: the sweep recomputes liveness from the store,
// so no counter can drift — and it does so inside the blob store's sweep
// fence, so a checkin that commits its ref and drops its pin while the
// sweep is running can never be selected off a stale live set.
func (fw *Framework) SweepBlobs() (int, error) {
	if fw.blobs == nil {
		return 0, nil
	}
	return fw.blobs.Sweep(func() map[[32]byte]bool {
		live := map[[32]byte]bool{}
		fw.store.ForEachBlobRef(func(_ oms.OID, _ string, r blobstore.Ref) {
			live[r.Digest] = true
		})
		return live
	})
}

// BlobStats reports the design-data accounting split (logical vs
// physical bytes) the dedup ratio is computed from.
func (fw *Framework) BlobStats() oms.BlobStats {
	return fw.store.BlobStatsNow()
}
