package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/blobstore"
)

// Replica is one follower store: it dials a Publisher, bootstraps, and
// applies the primary's change feed in strict LSN order. The replica's
// store mirrors the primary's commit sequence record for record
// (ApplyReplicated republishes at the primary's LSNs), so AppliedLSN is
// both the replication position and the store's own FeedLSN.
//
// Failure handling is uniform: any transport error, decode error, gap or
// mid-apply failure ends the current session, and the next (re)connect
// resumes from the applied LSN — or, when the store may be damaged
// (mid-apply failure), demands a fresh bootstrap. The publisher decides
// per session whether the resume position can be served from its feed
// ring or needs a snapshot/chain bootstrap, mirroring the Watch
// Lagged() fallback inside one process.
type Replica struct {
	st      *oms.Store
	dial    Dialer
	backoff time.Duration

	mu        sync.Mutex
	cond      *sync.Cond
	poisoned  bool // store state suspect; next hello demands a snapshot
	gapStreak int  // consecutive gap-failed sessions; escalates to bootstrap
	lastErr   error
	closed    bool
	done      chan struct{} // closed by Close; interrupts backoff sleeps
	conn      Conn          // live connection, closed to interrupt follow()

	// applied (== st.FeedLSN()) and watermark (publisher's last reported
	// committed LSN) are written only by the follow goroutine, inside
	// advanceLocked under r.mu — the store-then-Broadcast order is what
	// keeps WaitFor's cond loop free of lost wakeups. Reads (AppliedLSN,
	// Lag, WaitFor's fast path, the /metrics gauges) are lock-free, so a
	// scrape never contends with an apply.
	applied   atomic.Uint64
	watermark atomic.Uint64

	// blobWaiters holds the readers parked in fetchBlob, keyed by the
	// digest they asked the publisher for (guarded by mu). Each channel
	// is buffered and receives exactly one result.
	blobWaiters map[[32]byte][]chan blobResult

	wg sync.WaitGroup

	metrics replicaMetrics
}

// replicaMetrics holds the replica's instrument cells: pure atomics, so
// Stats() and a /metrics scrape never take r.mu (satellite: scraping
// must not block an apply).
type replicaMetrics struct {
	bootstraps  obs.Counter
	reconnects  obs.Counter
	gaps        obs.Counter
	framesIn    obs.Counter
	bytesIn     obs.Counter
	applied     obs.Counter // change frames applied
	closeErrors obs.Counter
	waitFor     obs.Histogram // WaitFor latency (fast path included)
	blobFetch   obs.Histogram // lazy blob fetch round-trip
	decode      obs.Histogram // one change frame's DecodeChanges
}

// ReplicaStats counts a replica's lifecycle events (a point-in-time view
// over the atomic cells; read via Stats).
type ReplicaStats struct {
	// Bootstraps counts snapshot installs (initial and re-bootstraps).
	Bootstraps int64
	// Reconnects counts sessions after the first.
	Reconnects int64
	// Gaps counts streams rejected because they skipped records.
	Gaps int64
	// FramesApplied counts applied change frames.
	FramesApplied int64
	// CloseErrors counts connection teardowns that themselves failed —
	// otherwise-invisible descriptor-leak warnings.
	CloseErrors int64
}

// noteCloseErr closes a dead connection, counting (rather than
// discarding) a teardown failure; the session it belonged to is already
// over, so there is no error path left to return it on.
func (r *Replica) noteCloseErr(c Conn) {
	if err := c.Close(); err != nil {
		r.metrics.closeErrors.Inc()
	}
}

// ReplicaOption configures NewReplica.
type ReplicaOption func(*Replica)

// WithReconnectBackoff sets the delay between failed sessions (default
// 50ms). Dial errors and dropped connections both wait this long.
func WithReconnectBackoff(d time.Duration) ReplicaOption {
	return func(r *Replica) { r.backoff = d }
}

// WithBlobStore attaches a content-addressed blob store to the follower
// store. The change feed replicates only ~40-byte refs for spilled
// design data; the first read of a blob the replica does not hold
// fetches it from the publisher by digest (FrameBlobFetch) and caches
// it locally, digest-verified. Spilling is disabled on the follower
// (threshold 0) — replicas never originate blobs.
func WithBlobStore(bs *blobstore.Store) ReplicaOption {
	return func(r *Replica) {
		r.st.AttachBlobs(bs, 0)
		bs.SetFetcher(r.fetchBlob)
	}
}

// NewReplica returns a stopped replica with an empty follower store
// enforcing schema. Call Start to begin following.
func NewReplica(schema *oms.Schema, d Dialer, opts ...ReplicaOption) *Replica {
	r := &Replica{
		st:      oms.NewStore(schema),
		dial:    d,
		backoff: 50 * time.Millisecond,
		done:    make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, o := range opts {
		o(r)
	}
	return r
}

// Store returns the follower store. It is live — queries see replicated
// state as it applies — and must be treated as STRICTLY read-only;
// mutating it forks the replica from the primary. Query layers wrap it
// in an enforcing view (jcf.NewReplicaView).
func (r *Replica) Store() *oms.Store { return r.st }

// Start launches the follow loop. It returns immediately.
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.run()
}

// AppliedLSN returns the highest primary LSN applied to the follower
// store (0 before the first bootstrap). Lock-free.
func (r *Replica) AppliedLSN() uint64 {
	return r.applied.Load()
}

// Lag returns how many committed records the replica is known to be
// behind the primary: the publisher's last reported watermark minus the
// applied LSN. It is a lower bound — the primary may have committed more
// since the last frame arrived. Lock-free; the two loads may straddle an
// advance, which only shrinks the reported lag (applied reads newer).
func (r *Replica) Lag() uint64 {
	watermark, applied := r.watermark.Load(), r.applied.Load()
	if watermark <= applied {
		return 0
	}
	return watermark - applied
}

// Err returns the error that ended the most recent session (nil after a
// clean stretch). Sessions auto-retry; Err is diagnostic.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Stats returns cumulative replica counters. Lock-free: each field is an
// independent atomic load, so the view may straddle a concurrent frame.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		Bootstraps:    r.metrics.bootstraps.Load(),
		Reconnects:    r.metrics.reconnects.Load(),
		Gaps:          r.metrics.gaps.Load(),
		FramesApplied: r.metrics.applied.Load(),
		CloseErrors:   r.metrics.closeErrors.Load(),
	}
}

// RegisterMetrics exposes the replica's instrument cells in reg. The
// applied/lag gauges read the same atomics AppliedLSN and Lag do, so the
// HTTP endpoint and the CLI report identical numbers.
func (r *Replica) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("repl_replica_bootstraps_total", &r.metrics.bootstraps)
	reg.RegisterCounter("repl_replica_reconnects_total", &r.metrics.reconnects)
	reg.RegisterCounter("repl_replica_gaps_total", &r.metrics.gaps)
	reg.RegisterCounter("repl_replica_frames_in_total", &r.metrics.framesIn)
	reg.RegisterCounter("repl_replica_bytes_in_total", &r.metrics.bytesIn)
	reg.RegisterCounter("repl_replica_frames_applied_total", &r.metrics.applied)
	reg.RegisterCounter("repl_replica_close_errors_total", &r.metrics.closeErrors)
	reg.RegisterGaugeFunc("repl_replica_applied_lsn", func() int64 { return int64(r.applied.Load()) })
	reg.RegisterGaugeFunc("repl_replica_lag", func() int64 { return int64(r.Lag()) })
	reg.RegisterHistogram("repl_waitfor_ns", &r.metrics.waitFor)
	reg.RegisterHistogram("repl_blob_fetch_ns", &r.metrics.blobFetch)
	reg.RegisterHistogram("repl_replica_decode_ns", &r.metrics.decode)
}

// WaitFor blocks until the replica has applied every record up to and
// including lsn — the read-your-writes barrier: a client that wrote to
// the primary at commit LSN n calls WaitFor(n) on its replica and then
// reads its own write. It fails after timeout, or immediately once the
// replica is closed or promoted.
func (r *Replica) WaitFor(lsn uint64, timeout time.Duration) error {
	start := obs.Now()
	// Already-applied fast path: no lock, no timer allocation. applied is
	// monotonic, and the slow path below returns nil for a satisfied wait
	// even on a closed replica, so answering from the atomic alone is
	// exactly the behavior the lock would produce.
	if r.applied.Load() >= lsn {
		r.metrics.waitFor.Since(start)
		return nil
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	defer r.metrics.waitFor.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.applied.Load() < lsn {
		if r.closed {
			return fmt.Errorf("repl: wait for lsn %d: replica closed", lsn)
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("repl: wait for lsn %d: timeout at %d", lsn, r.applied.Load())
		}
		r.cond.Wait()
	}
	return nil
}

// Close stops the follow loop and waits for it. Idempotent.
func (r *Replica) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.done)
		if r.conn != nil {
			r.noteCloseErr(r.conn)
		}
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// Promote detaches the replica for failover: the follow loop stops and
// the follower store is returned as the new writable primary. Its feed
// watermark already equals the applied LSN, so new commits continue the
// primary's LSN sequence — snapshots, differential saves and replicas of
// the promoted store all line up. The caller owns deciding that the old
// primary is really dead; repl offers no quorum.
func (r *Replica) Promote() *oms.Store {
	r.Close()
	return r.st
}

// run is the follow loop: dial, follow, back off, repeat.
func (r *Replica) run() {
	defer r.wg.Done()
	first := true
	for {
		if r.isClosed() {
			return
		}
		if !first {
			r.metrics.reconnects.Inc()
		}
		first = false
		c, err := r.dial.Dial()
		if err != nil {
			r.fail(err)
			r.sleep()
			continue
		}
		r.setConn(c)
		err = r.follow(c)
		r.noteCloseErr(c)
		r.setConn(nil)
		r.failBlobWaiters()
		if r.isClosed() {
			return
		}
		if err != nil {
			r.fail(err)
		}
		r.sleep()
	}
}

// follow runs one session: hello, then apply frames until the stream
// ends. A nil return means the peer hung up cleanly (publisher closing
// or dropping the session); the loop reconnects either way.
func (r *Replica) follow(c Conn) error {
	r.mu.Lock()
	flags := byte(0)
	if r.poisoned {
		flags |= helloNeedSnapshot
	}
	r.mu.Unlock()
	resume := r.applied.Load()
	if err := c.Send(Frame{Type: FrameHello, LSN: resume, Payload: []byte{flags}}); err != nil {
		return err
	}
	for {
		f, err := c.Recv()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		r.metrics.framesIn.Inc()
		r.metrics.bytesIn.Add(int64(len(f.Payload)))
		switch f.Type {
		case FrameSnapshot:
			// A healthy replica past the bootstrap base skips the
			// install: rewinding the store below its applied LSN would
			// transiently un-happen writes that WaitFor barriers already
			// acknowledged. The frames that follow overlap-trim against
			// the applied position and continue from there. A base at
			// the applied LSN is installed: it rewinds nothing, and a
			// fresh replica needs it when the primary's base sits at LSN
			// 0. A poisoned store takes the snapshot unconditionally —
			// that is the point of demanding it.
			r.mu.Lock()
			skip := !r.poisoned && f.LSN < r.applied.Load()
			r.mu.Unlock()
			if skip {
				continue
			}
			if err := r.st.ResetFromSnapshot(f.Payload, f.LSN); err != nil {
				// Nothing was installed; the store is whatever it was.
				return err
			}
			r.metrics.bootstraps.Inc()
			r.mu.Lock()
			r.poisoned = false
			r.gapStreak = 0
			r.advanceLocked(f.LSN, f.LSN)
			r.mu.Unlock()
		case FrameChanges:
			start := obs.Now()
			recs, err := oms.DecodeChanges(f.Payload)
			r.metrics.decode.Since(start)
			if err != nil {
				return err
			}
			// Drop records the store already holds — overlap is normal
			// when a resume point sits inside a shipped delta chain.
			applied := r.st.FeedLSN()
			for len(recs) > 0 && recs[0].LSN <= applied {
				recs = recs[1:]
			}
			if err := r.st.ApplyReplicated(recs); err != nil {
				r.mu.Lock()
				if errors.Is(err, oms.ErrFeedGap) {
					// Nothing applied; resuming from the applied LSN is
					// safe and the publisher will fill the gap. But a
					// gap that persists across sessions means resume
					// cannot converge (e.g. the replica's history has
					// diverged from this primary's) — escalate to a
					// forced bootstrap instead of reconnecting forever.
					r.metrics.gaps.Inc()
					if r.gapStreak++; r.gapStreak >= 3 {
						r.poisoned = true
					}
				} else {
					// Failed mid-group: the store is suspect. Demand a
					// fresh snapshot on the next session.
					r.poisoned = true
				}
				r.mu.Unlock()
				return err
			}
			r.metrics.applied.Inc()
			r.mu.Lock()
			if len(recs) > 0 {
				// Real records attached — resume is converging. (Empty
				// position frames don't count: they would reset the
				// streak on every reconnect of a diverged replica.)
				r.gapStreak = 0
			}
			r.advanceLocked(r.st.FeedLSN(), f.LSN)
			r.mu.Unlock()
		case FrameBlob:
			if err := r.acceptBlob(f); err != nil {
				return err
			}
		default:
			return fmt.Errorf("repl: unexpected frame type %d", f.Type)
		}
	}
}

// blobResult delivers one fetched blob (or its failure) to a waiter.
type blobResult struct {
	data []byte
	err  error
}

// fetchBlob is the blob store's miss handler: ask the current session's
// publisher for ref and park until the FrameBlob answer is routed back
// by follow(). The blob store digest-verifies whatever arrives before
// caching or returning it, so a corrupt or lying peer cannot poison the
// local CAS. Runs on reader goroutines, never under r.mu.
func (r *Replica) fetchBlob(ref blobstore.Ref) ([]byte, error) {
	start := obs.Now()
	ch := make(chan blobResult, 1)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("repl: fetch %s: replica closed", ref)
	}
	c := r.conn
	if c == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("repl: fetch %s: no publisher session", ref)
	}
	if r.blobWaiters == nil {
		r.blobWaiters = map[[32]byte][]chan blobResult{}
	}
	r.blobWaiters[ref.Digest] = append(r.blobWaiters[ref.Digest], ch)
	r.mu.Unlock()
	if err := c.Send(Frame{Type: FrameBlobFetch, Payload: blobstore.EncodeRef(ref)}); err != nil {
		r.dropBlobWaiter(ref.Digest, ch)
		// The channel may have raced a delivery in before the drop; a
		// buffered result is simply discarded with the channel.
		return nil, fmt.Errorf("repl: fetch %s: %w", ref, err)
	}
	select {
	case res := <-ch:
		r.metrics.blobFetch.Since(start)
		return res.data, res.err
	case <-r.done:
		r.dropBlobWaiter(ref.Digest, ch)
		return nil, fmt.Errorf("repl: fetch %s: replica closed", ref)
	}
}

// acceptBlob routes one FrameBlob to the waiters parked on its digest.
// The status byte after the echoed ref distinguishes a not-found answer
// from a found blob — including a legitimate zero-length one, which an
// empty-payload convention could never deliver.
func (r *Replica) acceptBlob(f Frame) error {
	if len(f.Payload) < blobstore.EncodedRefSize+1 {
		return fmt.Errorf("repl: short blob frame (%d bytes)", len(f.Payload))
	}
	ref, err := blobstore.DecodeRef(f.Payload[:blobstore.EncodedRefSize])
	if err != nil {
		return fmt.Errorf("repl: blob frame: %w", err)
	}
	var res blobResult
	switch status := f.Payload[blobstore.EncodedRefSize]; status {
	case blobFound:
		res.data = f.Payload[blobstore.EncodedRefSize+1:]
	case blobMissing:
		res.err = fmt.Errorf("repl: publisher does not hold %s", ref)
	default:
		return fmt.Errorf("repl: blob frame with unknown status %d", status)
	}
	r.mu.Lock()
	chs := r.blobWaiters[ref.Digest]
	delete(r.blobWaiters, ref.Digest)
	r.mu.Unlock()
	for _, ch := range chs {
		ch <- res // buffered; never blocks
	}
	return nil
}

// dropBlobWaiter unregisters one fetch channel (send failed or the
// replica closed before the answer came).
func (r *Replica) dropBlobWaiter(digest [32]byte, ch chan blobResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	chs := r.blobWaiters[digest]
	for i, c := range chs {
		if c == ch {
			chs = append(chs[:i], chs[i+1:]...)
			break
		}
	}
	if len(chs) == 0 {
		delete(r.blobWaiters, digest)
	} else {
		r.blobWaiters[digest] = chs
	}
}

// failBlobWaiters ends every outstanding fetch: the session the requests
// went out on is gone and its answers will never arrive. Readers retry
// against the next session if they want to.
func (r *Replica) failBlobWaiters() {
	r.mu.Lock()
	waiters := r.blobWaiters
	r.blobWaiters = nil
	r.mu.Unlock()
	for _, chs := range waiters {
		for _, ch := range chs {
			ch <- blobResult{err: errors.New("repl: session ended before blob arrived")}
		}
	}
}

// advanceLocked moves the applied/watermark positions and wakes WaitFor.
// Caller holds r.mu: the atomics are stored before the Broadcast and
// WaitFor re-checks them under the same mu, so no wakeup is lost.
func (r *Replica) advanceLocked(applied, watermark uint64) {
	r.applied.Store(applied)
	if watermark < applied {
		watermark = applied
	}
	if watermark > r.watermark.Load() {
		r.watermark.Store(watermark)
	}
	r.cond.Broadcast()
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

func (r *Replica) setConn(c Conn) {
	r.mu.Lock()
	r.conn = c
	if r.closed && c != nil {
		r.noteCloseErr(c)
	}
	r.mu.Unlock()
}

func (r *Replica) fail(err error) {
	r.mu.Lock()
	r.lastErr = err
	r.mu.Unlock()
}

// sleep waits the reconnect backoff, returning early on Close.
func (r *Replica) sleep() {
	t := time.NewTimer(r.backoff)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.done:
	}
}
