package blobstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"repro/internal/obs"
	"repro/internal/oms/backend"
)

// ErrNotFound reports a ref whose blob is neither local nor fetchable.
var ErrNotFound = errors.New("blobstore: blob not found")

// Fetcher pulls a missing blob from elsewhere — a replica wires this to
// a blobfetch round-trip on its replication connection. The returned
// bytes are digest-verified by the store before being served or cached,
// so a lying peer cannot poison the CAS.
type Fetcher func(Ref) ([]byte, error)

// uploadWorkers bounds the number of concurrent async uploads.
// PutAsync callers never block on the bound; queued uploads wait for a
// slot.
const uploadWorkers = 4

// upload is one in-flight backend write of a digest; duplicate writers
// of the same content wait on done instead of writing twice.
type upload struct {
	done chan struct{}
	err  error // written before close(done), read only after <-done
}

// Store is a content-addressed blob store on a backend.Backend.
//
// Concurrency: mu guards only the in-memory maps and is a leaf — no
// backend I/O, no other lock, and no channel operation happens under it.
// Backend writes are serialized per digest through the inflight map, so
// concurrent Puts of identical content store it exactly once. sweepMu is
// the sweep fence (see Sweep); it is ordered strictly above mu.
type Store struct {
	be      backend.Backend
	workers chan struct{} // async upload slots

	// sweepMu fences pin releases against the GC. Sweep holds it
	// exclusively from its live-set scan through victim selection; Unpin
	// acquires it shared. Every ref is pinned from before its backend
	// write until after its metadata commit, so fencing the unpin means a
	// digest observed unpinned during selection had its metadata commit
	// finish before the live scan started — the scan saw the ref, and the
	// live set can never be stale for a committed blob.
	sweepMu sync.RWMutex

	mu       sync.Mutex // leaf: guards the maps below only
	have     map[[32]byte]struct{}
	inflight map[[32]byte]*upload
	pinned   map[[32]byte]int
	// condemned holds the digests a running Sweep has selected and not
	// yet deleted from the backend. A commit of a condemned digest waits
	// on the sweep's gate channel and then rewrites, so a re-checkin of
	// just-collected content can never have its fresh backend write
	// destroyed by the sweep's trailing Delete.
	condemned map[[32]byte]chan struct{}
	fetcher   Fetcher

	// Counters and gauges are obs cells — pure atomics, so Stats() and a
	// /metrics scrape read them without touching mu (a scrape can never
	// block an upload), and RegisterMetrics exposes the same cells.
	statPhysical  obs.Counter // bytes actually written to the backend (post-dedup)
	statLogical   obs.Counter // bytes handed to the put paths (pre-dedup)
	statDedupHits obs.Counter // puts satisfied by an existing or in-flight copy
	statFetched   obs.Counter // bytes pulled through the fetcher
	statSwept     obs.Counter // entries removed by Sweep
	haveCount     obs.Gauge   // mirrors len(have); maintained under mu
	queueDepth    obs.Gauge   // PutAsync uploads registered and not yet settled
	inflightUp    obs.Gauge   // uploads holding a worker slot right now
	uploadNs      obs.Histogram
	sweepNs       obs.Histogram
}

// New opens a store on be and rebuilds the in-memory index from the
// backend listing — the only persistent state is the blobs themselves.
func New(be backend.Backend) (*Store, error) {
	s := &Store{
		be:        be,
		workers:   make(chan struct{}, uploadWorkers),
		have:      make(map[[32]byte]struct{}),
		inflight:  make(map[[32]byte]*upload),
		pinned:    make(map[[32]byte]int),
		condemned: make(map[[32]byte]chan struct{}),
	}
	names, err := be.List()
	if err != nil {
		return nil, fmt.Errorf("blobstore: rebuilding index: %w", err)
	}
	for _, name := range names {
		if d, ok := parseKey(name); ok {
			s.have[d] = struct{}{}
		}
	}
	s.haveCount.Update(int64(len(s.have)))
	return s, nil
}

// SetFetcher installs the lazy-fetch hook for misses. Set once, during
// wiring, before concurrent readers exist.
func (s *Store) SetFetcher(f Fetcher) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetcher = f
}

// Has reports whether the blob is present locally (without fetching).
func (s *Store) Has(r Ref) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.have[r.Digest]
	return ok
}

// Count returns the number of locally stored blobs. It reads the
// atomic mirror of the index size, so callers (scrapes, the follow
// loop) never contend on the hot path's mutex.
func (s *Store) Count() int {
	return int(s.haveCount.Load())
}

// Pin marks a digest live for Sweep regardless of the caller's live set,
// covering the window from before a blob lands in the CAS until its ref
// has committed to metadata. Pins nest; balance each Pin with one Unpin.
// The Sweep contract requires the pin to be taken BEFORE the backend
// write (PutBytesPinned and PutAsync do this) and released only after
// the metadata commit has resolved.
func (s *Store) Pin(r Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pinned[r.Digest]++
}

// Unpin releases one Pin. It passes through the sweep fence: an unpin
// never lands between a running Sweep's live-set scan and its victim
// selection, which is what makes the scan trustworthy (see sweepMu).
// Callers must not hold the store's other locks, and a Sweep's scanLive
// callback must not unpin (it would self-deadlock on the fence).
func (s *Store) Unpin(r Ref) {
	s.sweepMu.RLock()
	defer s.sweepMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pinned[r.Digest]--; s.pinned[r.Digest] <= 0 {
		delete(s.pinned, r.Digest)
	}
}

// PutBytes stores data and returns its ref. Duplicate content is
// detected before any backend write. The blob is NOT pinned — callers
// that intend to commit the ref to metadata must use PutBytesPinned so
// the liveness sweep cannot collect the blob before the ref is visible.
func (s *Store) PutBytes(data []byte) (Ref, error) {
	ref := RefOf(data)
	s.statLogical.Add(int64(len(data)))
	if err := s.commit(ref, data); err != nil {
		return Ref{}, err
	}
	return ref, nil
}

// PutBytesPinned stores data with its ref pinned BEFORE any backend
// write — the ordering the Sweep contract demands, closing the window
// where a blob is durable but neither pinned, in-flight, nor reachable.
// The returned release func drops the pin; call it exactly once, after
// the ref's metadata commit has resolved (either way — a failed commit
// just leaves an orphan for the next sweep).
func (s *Store) PutBytesPinned(data []byte) (Ref, func(), error) {
	ref := RefOf(data)
	s.statLogical.Add(int64(len(data)))
	s.Pin(ref)
	if err := s.commit(ref, data); err != nil {
		s.Unpin(ref)
		return Ref{}, nil, err
	}
	return ref, func() { s.Unpin(ref) }, nil
}

// Put streams r into the store, hashing while copying.
func (s *Store) Put(r io.Reader) (Ref, error) {
	w := s.NewWriter()
	defer w.Close()
	if _, err := io.Copy(w, r); err != nil {
		return Ref{}, err
	}
	return w.Commit()
}

// PutAsync computes the ref synchronously — callers need it for the
// metadata commit — and uploads on a bounded worker pool. The blob is
// pinned against Sweep before PutAsync returns; the caller owns that pin
// and must call the returned release func exactly once, after its
// metadata commit has resolved. (The store cannot release it itself:
// the upload may finish before the caller's commit, and an unpinned,
// uncommitted blob is exactly what Sweep is allowed to eat.) cb receives
// the upload outcome exactly once (nil on success, including dedup hits).
func (s *Store) PutAsync(data []byte, cb func(error)) (Ref, func()) {
	ref := RefOf(data)
	s.statLogical.Add(int64(len(data)))
	s.Pin(ref)
	s.queueDepth.Inc()
	go func() {
		s.workers <- struct{}{}
		s.inflightUp.Inc()
		defer func() {
			s.inflightUp.Dec()
			s.queueDepth.Dec()
			<-s.workers
		}()
		err := s.commit(ref, data)
		if cb != nil {
			cb(err)
		}
	}()
	return ref, func() { s.Unpin(ref) }
}

// commit is the single write path: dedup against stored and in-flight
// copies, then one backend.Put outside mu.
func (s *Store) commit(ref Ref, data []byte) error {
	if int64(len(data)) > MaxBlobSize {
		return fmt.Errorf("blobstore: %d bytes exceeds %d-byte blob limit", len(data), MaxBlobSize)
	}
	for {
		s.mu.Lock()
		if gate, ok := s.condemned[ref.Digest]; ok {
			// A sweep selected this digest and its backend Delete is still
			// pending. Writing now could be destroyed by that Delete; wait
			// it out and rewrite from scratch.
			s.mu.Unlock()
			<-gate
			continue
		}
		if _, ok := s.have[ref.Digest]; ok {
			s.mu.Unlock()
			s.statDedupHits.Add(1)
			return nil
		}
		if up, ok := s.inflight[ref.Digest]; ok {
			s.mu.Unlock()
			<-up.done
			if up.err == nil {
				s.statDedupHits.Add(1)
				return nil
			}
			continue // the racing writer failed; try to claim the slot
		}
		up := &upload{done: make(chan struct{})}
		s.inflight[ref.Digest] = up
		s.mu.Unlock()

		upStart := obs.Now()
		err := s.be.Put(ref.Key(), data)
		s.uploadNs.Since(upStart)
		s.mu.Lock()
		delete(s.inflight, ref.Digest)
		if err == nil {
			s.have[ref.Digest] = struct{}{}
			s.haveCount.Inc()
		}
		s.mu.Unlock()
		up.err = err
		close(up.done)
		if err == nil {
			s.statPhysical.Add(ref.Size)
		}
		return err
	}
}

// Get returns the blob for ref, fetching through the Fetcher on a local
// miss. The digest and size are verified before the bytes are served.
func (s *Store) Get(ref Ref) ([]byte, error) {
	s.mu.Lock()
	_, local := s.have[ref.Digest]
	fetch := s.fetcher
	s.mu.Unlock()
	if local {
		data, err := s.be.Get(ref.Key())
		if err != nil {
			return nil, fmt.Errorf("blobstore: reading %s: %w", ref, err)
		}
		if err := verify(ref, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	if fetch == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ref)
	}
	data, err := fetch(ref)
	if err != nil {
		return nil, fmt.Errorf("blobstore: fetching %s: %w", ref, err)
	}
	if err := verify(ref, data); err != nil {
		return nil, fmt.Errorf("blobstore: fetched %s: %w", ref, err)
	}
	s.statFetched.Add(ref.Size)
	// Cache the verified copy so the next read is local. A commit failure
	// only costs the cache, not the read.
	if err := s.commit(ref, data); err != nil {
		return data, nil //lint:allow noerrdrop fetched bytes are already verified; caching is best-effort
	}
	return data, nil
}

// Verify reads the blob back and checks its digest — the load-time proof
// that a live ref resolves to the bytes it was committed with.
func (s *Store) Verify(ref Ref) error {
	_, err := s.Get(ref)
	return err
}

func verify(ref Ref, data []byte) error {
	if int64(len(data)) != ref.Size {
		return fmt.Errorf("blobstore: %s resolved to %d bytes", ref, len(data))
	}
	if sha256.Sum256(data) != ref.Digest {
		return fmt.Errorf("blobstore: digest mismatch reading %s", ref)
	}
	return nil
}

// Sweep removes every stored blob whose digest is neither reported live
// by scanLive nor pinned nor mid-upload, and returns how many were
// removed. scanLive recomputes the live set (every committed ref); nil
// means nothing is live. The caller owns the liveness contract: every
// ref it intends to commit must be pinned — from before the backend
// write until after the metadata commit (PutBytesPinned / PutAsync do
// this) — or already reachable via scanLive.
//
// Correctness of selection rests on the sweep fence: scanLive runs and
// victims are selected under sweepMu held exclusively, and Unpin takes
// sweepMu shared. So at selection time an unpinned digest had its last
// unpin — and therefore, by the pin contract, its metadata commit —
// happen before the scan started, meaning the scan saw the ref and the
// digest is in live. A stale live set can only ever spare a blob, never
// condemn a committed one. scanLive must not call back into the store's
// pin management (Unpin would self-deadlock on the fence).
//
// Selected victims stay "condemned" until their backend Delete has run;
// a racing commit of the same digest waits and then rewrites, so the
// trailing Delete can never destroy a fresh re-checkin's bytes.
func (s *Store) Sweep(scanLive func() map[[32]byte]bool) (int, error) {
	defer s.sweepNs.Since(obs.Now())
	names, err := s.be.List()
	if err != nil {
		return 0, fmt.Errorf("blobstore: sweep listing: %w", err)
	}
	s.sweepMu.Lock()
	var live map[[32]byte]bool
	if scanLive != nil {
		live = scanLive()
	}
	gate := make(chan struct{})
	var victims [][32]byte
	s.mu.Lock()
	for _, name := range names {
		d, ok := parseKey(name)
		if !ok || live[d] {
			continue
		}
		if _, ok := s.inflight[d]; ok {
			continue
		}
		if _, ok := s.condemned[d]; ok {
			continue // a concurrent sweep already owns this victim
		}
		if s.pinned[d] > 0 {
			continue
		}
		delete(s.have, d)
		s.haveCount.Dec()
		s.condemned[d] = gate
		victims = append(victims, d)
	}
	s.mu.Unlock()
	s.sweepMu.Unlock()
	removed := 0
	defer func() {
		// Lift the condemnations (even on a failed Delete — the blob is
		// garbage either way; a racing commit just rewrites it) and only
		// then open the gate, so woken commits see a clean map.
		s.mu.Lock()
		for _, d := range victims {
			delete(s.condemned, d)
		}
		s.mu.Unlock()
		close(gate)
		s.statSwept.Add(int64(removed))
	}()
	for _, d := range victims {
		if err := s.be.Delete(Ref{Digest: d}.Key()); err != nil {
			return removed, fmt.Errorf("blobstore: sweeping %x: %w", d[:6], err)
		}
		removed++
	}
	return removed, nil
}

// Stats is the store's observability surface.
type Stats struct {
	PhysicalBytes int64 // bytes written to the backend (post-dedup)
	DedupHits     int64 // puts satisfied without a write
	FetchedBytes  int64 // bytes pulled through the fetcher
	Swept         int64 // entries removed by Sweep
}

// Stats returns counters since construction. Pure atomic loads — no
// lock shared with the put/get paths.
func (s *Store) Stats() Stats {
	return Stats{
		PhysicalBytes: s.statPhysical.Load(),
		DedupHits:     s.statDedupHits.Load(),
		FetchedBytes:  s.statFetched.Load(),
		Swept:         s.statSwept.Load(),
	}
}

// RegisterMetrics exposes the CAS's instrument cells in reg — the same
// cells Stats reads, so the two views can never disagree. The dedup
// ratio is blob_logical_bytes_total / blob_physical_bytes_total.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("blob_logical_bytes_total", &s.statLogical)
	reg.RegisterCounter("blob_physical_bytes_total", &s.statPhysical)
	reg.RegisterCounter("blob_dedup_hits_total", &s.statDedupHits)
	reg.RegisterCounter("blob_fetched_bytes_total", &s.statFetched)
	reg.RegisterCounter("blob_swept_total", &s.statSwept)
	reg.RegisterGauge("blob_count", &s.haveCount)
	reg.RegisterGauge("blob_queue_depth", &s.queueDepth)
	reg.RegisterGauge("blob_inflight_uploads", &s.inflightUp)
	reg.RegisterHistogram("blob_upload_ns", &s.uploadNs)
	reg.RegisterHistogram("blob_sweep_ns", &s.sweepNs)
}

// Writer is a streaming, hashing put handle: Write accumulates and
// hashes, Commit stores under the computed digest, Close aborts an
// uncommitted write (and is a no-op after Commit) — so `defer w.Close()`
// is always correct, and releasepath enforces that no path leaks one.
type Writer struct {
	s    *Store
	h    hash.Hash
	buf  bytes.Buffer
	done bool
}

// NewWriter opens a streaming put. The caller must Close it on every
// path; Commit does not replace Close.
func (s *Store) NewWriter() *Writer {
	return &Writer{s: s, h: sha256.New()}
}

// Write hashes and buffers p.
func (w *Writer) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("blobstore: write on finished writer")
	}
	if int64(w.buf.Len())+int64(len(p)) > MaxBlobSize {
		return 0, fmt.Errorf("blobstore: blob exceeds %d-byte limit", MaxBlobSize)
	}
	w.h.Write(p) //lint:allow noerrdrop hash.Hash.Write never returns an error (stdlib contract)
	return w.buf.Write(p)
}

// Commit stores the accumulated bytes and returns their ref.
func (w *Writer) Commit() (Ref, error) {
	if w.done {
		return Ref{}, errors.New("blobstore: commit on finished writer")
	}
	w.done = true
	var ref Ref
	w.h.Sum(ref.Digest[:0])
	ref.Size = int64(w.buf.Len())
	if err := w.s.commit(ref, w.buf.Bytes()); err != nil {
		return Ref{}, err
	}
	return ref, nil
}

// Close aborts an uncommitted writer; after Commit it is a no-op.
func (w *Writer) Close() error {
	w.done = true
	w.buf.Reset()
	return nil
}

// Reader is a verified read handle: Open resolves and digest-checks the
// whole blob, Read streams from the verified copy, Close releases it.
type Reader struct {
	r      *bytes.Reader
	closed bool
}

// Open returns a reader over the blob, after fetching (if needed) and
// verifying it. The caller must Close it on every path.
func (s *Store) Open(ref Ref) (*Reader, error) {
	data, err := s.Get(ref)
	if err != nil {
		return nil, err
	}
	return &Reader{r: bytes.NewReader(data)}, nil
}

// Read streams the verified blob bytes.
func (r *Reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, errors.New("blobstore: read on closed reader")
	}
	return r.r.Read(p)
}

// Close releases the handle.
func (r *Reader) Close() error {
	r.closed = true
	return nil
}
