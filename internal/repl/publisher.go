package repl

import (
	"errors"
	"sync"

	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
)

// sessionBuffer is the per-session Watch channel depth, in commit
// groups: how long a consumer stall a session absorbs before it lags
// out of the feed ring.
const sessionBuffer = 256

// Publisher wraps a primary oms.Store and serves its change feed to
// follower sessions. One Publisher serves any number of listeners and
// sessions concurrently; sessions are independent — a slow replica can
// only lose its own subscription (and reconnect), never stall the
// primary's writers or its siblings.
type Publisher struct {
	st   *oms.Store
	seed backend.Backend // optional: manifest-chain bootstrap source

	mu        sync.Mutex
	closed    bool
	listeners map[Listener]struct{}
	conns     map[Conn]struct{}
	wg        sync.WaitGroup

	statSessions    obs.Counter
	statSnapshots   obs.Counter
	statChainBoots  obs.Counter
	statFrames      obs.Counter
	statBytes       obs.Counter
	statCloseErrors obs.Counter
	statEncode      obs.Histogram // one streamed group's EncodeChanges
}

// RegisterMetrics exposes the publisher's counters in reg; they are the
// same cells Stats() reads, so both views always agree.
func (p *Publisher) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("repl_pub_sessions_total", &p.statSessions)
	reg.RegisterCounter("repl_pub_snapshot_bootstraps_total", &p.statSnapshots)
	reg.RegisterCounter("repl_pub_chain_bootstraps_total", &p.statChainBoots)
	reg.RegisterCounter("repl_pub_frames_out_total", &p.statFrames)
	reg.RegisterCounter("repl_pub_bytes_out_total", &p.statBytes)
	reg.RegisterCounter("repl_pub_close_errors_total", &p.statCloseErrors)
	reg.RegisterHistogram("repl_pub_encode_ns", &p.statEncode)
}

// closeConn tears a connection or listener down. Teardown failures
// cannot be returned (the session is already gone) but they must not
// vanish either — a transport that fails to close is a descriptor leak
// in the making, so the failure is counted and surfaced in Stats.
func (p *Publisher) closeConn(c interface{ Close() error }) {
	if err := c.Close(); err != nil {
		p.statCloseErrors.Inc()
	}
}

// PublisherStats is a point-in-time counter snapshot.
type PublisherStats struct {
	// Sessions is the number of follower sessions ever accepted.
	Sessions int64
	// SnapshotBootstraps counts sessions bootstrapped with a fresh
	// consistent-cut snapshot of the live store.
	SnapshotBootstraps int64
	// ChainBootstraps counts sessions bootstrapped by shipping the
	// persistence layer's committed base + delta chain instead.
	ChainBootstraps int64
	// FramesSent / BytesSent count streamed frames and payload bytes.
	FramesSent int64
	BytesSent  int64
	// CloseErrors counts connection/listener teardowns that themselves
	// failed — otherwise-invisible descriptor-leak warnings.
	CloseErrors int64
}

// PublisherOption configures NewPublisher.
type PublisherOption func(*Publisher)

// WithSeedBackend lets the publisher bootstrap followers by shipping the
// base + delta chain already committed to b (the backend the primary's
// Framework.SaveTo targets) instead of cutting and encoding a fresh
// snapshot — the manifest commit stream reused as the bootstrap path.
// The chain is only used while the feed still retains the manifest's
// FeedLSN; otherwise the publisher falls back to a live snapshot.
func WithSeedBackend(b backend.Backend) PublisherOption {
	return func(p *Publisher) { p.seed = b }
}

// NewPublisher returns a publisher for the primary store. Call Serve
// with one or more listeners, then Close to stop everything.
func NewPublisher(st *oms.Store, opts ...PublisherOption) *Publisher {
	p := &Publisher{
		st:        st,
		listeners: map[Listener]struct{}{},
		conns:     map[Conn]struct{}{},
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Serve accepts follower sessions on ln until the listener or the
// publisher is closed. It blocks; run it on its own goroutine when
// serving multiple listeners.
func (p *Publisher) Serve(ln Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.listeners[ln] = struct{}{}
	p.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			delete(p.listeners, ln)
			p.mu.Unlock()
			if closed || errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			p.closeConn(c)
			return nil
		}
		p.conns[c] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		p.statSessions.Inc()
		go p.session(c)
	}
}

// DisconnectAll drops every live session (replicas reconnect and resume
// from their applied LSN). Listeners stay open — the operational lever
// for a rolling reconnect, and the stress tests' transport kill.
func (p *Publisher) DisconnectAll() {
	p.mu.Lock()
	conns := make([]Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		p.closeConn(c)
	}
}

// Close stops every listener and session and waits for them.
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	lns := make([]Listener, 0, len(p.listeners))
	for ln := range p.listeners {
		lns = append(lns, ln)
	}
	conns := make([]Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, ln := range lns {
		p.closeConn(ln)
	}
	for _, c := range conns {
		p.closeConn(c)
	}
	p.wg.Wait()
}

// Stats returns cumulative publisher counters.
func (p *Publisher) Stats() PublisherStats {
	return PublisherStats{
		Sessions:           p.statSessions.Load(),
		SnapshotBootstraps: p.statSnapshots.Load(),
		ChainBootstraps:    p.statChainBoots.Load(),
		FramesSent:         p.statFrames.Load(),
		BytesSent:          p.statBytes.Load(),
		CloseErrors:        p.statCloseErrors.Load(),
	}
}

// session runs one follower connection: hello → (bootstrap frames) →
// live stream until either side drops.
func (p *Publisher) session(c Conn) {
	defer func() {
		p.closeConn(c)
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
		p.wg.Done()
	}()
	hello, err := c.Recv()
	if err != nil || hello.Type != FrameHello {
		return
	}
	needSnap := len(hello.Payload) > 0 && hello.Payload[0]&helloNeedSnapshot != 0
	sub, bootstrap, err := p.attach(hello.LSN, needSnap)
	if err != nil {
		return
	}
	defer sub.Close()
	// Watch the connection for peer departure so the stream loop (which
	// may be parked in sub.C() with nothing to send) shuts down promptly.
	// The same goroutine serves blob-fetch requests: the change feed
	// carries only ~40-byte refs, so followers pull blob bytes on demand,
	// and serving from here keeps fetches off the stream loop's back.
	go func() {
		for {
			f, err := c.Recv()
			if err != nil {
				sub.Close()
				return
			}
			if f.Type == FrameBlobFetch {
				if !p.serveBlob(c, f) {
					sub.Close()
					return
				}
			}
		}
	}()
	for _, f := range bootstrap {
		if !p.send(c, f) {
			return
		}
	}
	// Position frame: an empty changes payload carrying the committed
	// watermark, so the follower knows its lag (and that it is converged)
	// immediately instead of only after the next commit.
	if !p.send(c, Frame{Type: FrameChanges, LSN: p.st.FeedLSN(), Payload: oms.EncodeChanges(nil)}) {
		return
	}
	for group := range sub.C() {
		start := obs.Now()
		payload := oms.EncodeChanges(group)
		p.statEncode.Since(start)
		if !p.send(c, Frame{Type: FrameChanges, LSN: p.st.FeedLSN(), Payload: payload}) {
			return
		}
	}
	// sub closed: the session lagged out of the feed ring (the replica
	// reconnects and re-bootstraps), or the publisher/conn is closing.
}

// serveBlob answers one FrameBlobFetch: look the ref up in the primary
// store's blob store and reply FrameBlob with ref||status||bytes. An
// explicit blobMissing status (rather than an empty bytes section) tells
// the replica not-found without making a legitimate zero-length blob
// unfetchable. Returns false only on a send failure; a miss or a
// malformed request is the requester's problem, not grounds to kill the
// session. Safe concurrently with the stream loop: both transports
// serialize Send internally.
func (p *Publisher) serveBlob(c Conn, req Frame) bool {
	ref, err := blobstore.DecodeRef(req.Payload)
	if err != nil {
		return true
	}
	resp := Frame{Type: FrameBlob, Payload: append(blobstore.EncodeRef(ref), blobMissing)}
	if bs := p.st.Blobs(); bs != nil {
		if data, err := bs.Get(ref); err == nil {
			resp.Payload[blobstore.EncodedRefSize] = blobFound
			resp.Payload = append(resp.Payload, data...)
		}
	}
	return p.send(c, resp)
}

func (p *Publisher) send(c Conn, f Frame) bool {
	if err := c.Send(f); err != nil {
		return false
	}
	p.statFrames.Inc()
	p.statBytes.Add(int64(len(f.Payload)))
	return true
}

// attach picks a session's start strategy: resume straight from the feed
// ring when it still retains the follower's position, else bootstrap —
// by manifest chain when available, else by live snapshot — and returns
// the live subscription plus the bootstrap frames to send first.
func (p *Publisher) attach(resume uint64, needSnap bool) (*oms.Subscription, []Frame, error) {
	// A follower at 0 holds the empty store, and the feed from 0 rebuilds
	// the primary from that: no store holds a non-empty base at LSN 0.
	if !needSnap && resume <= p.st.FeedLSN() {
		if sub, err := p.st.Watch(resume, sessionBuffer); err == nil {
			return sub, nil, nil
		}
	}
	if sub, frames, ok := p.chainBootstrap(); ok {
		p.statChainBoots.Inc()
		return sub, frames, nil
	}
	// Live snapshot. Between the cut and the Watch the ring would have to
	// evict the snapshot's LSN — ~32k commits — for the Watch to fail;
	// retry the pair a few times rather than treating that as fatal.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		snap := p.st.Snapshot()
		data := snap.Encode()
		sub, err := p.st.Watch(snap.LSN(), sessionBuffer)
		if err != nil {
			lastErr = err
			continue
		}
		p.statSnapshots.Inc()
		return sub, []Frame{{Type: FrameSnapshot, LSN: snap.LSN(), Payload: data}}, nil
	}
	return nil, nil, lastErr
}

// chainBootstrap builds bootstrap frames from the seed backend's
// committed chain: the base snapshot payload, folded with its overlay
// by the same oms.MergeCheckpoint jcf.LoadFrom installs through, plus
// each delta payload as the persistence layer wrote it. The chain is
// read through the same backend.ReadChain that jcf.LoadFrom uses, so a
// chain LoadFrom would refuse (a bad checksum, a gap in the LSN ranges)
// is never shipped; nor is a base or delta in an older format, which
// the replica's decoders would refuse with backend.ErrOldFormat on every
// reconnect.
// Usable only while the feed still retains the manifest's FeedLSN (the
// chain must hand over to the live stream without a gap); otherwise the
// caller falls back to a live snapshot.
func (p *Publisher) chainBootstrap() (*oms.Subscription, []Frame, bool) {
	if p.seed == nil {
		return nil, nil, false
	}
	c, err := backend.ReadChain(p.seed)
	if err != nil {
		return nil, nil, false
	}
	base, err := oms.MergeCheckpoint(c.Base, c.Overlay)
	if err != nil || oms.CheckSnapshotFormat(base) != nil {
		return nil, nil, false
	}
	for _, payload := range c.Deltas {
		if oms.CheckChangesFormat(payload) != nil {
			return nil, nil, false
		}
	}
	m := c.Manifest
	sub, err := p.st.Watch(m.FeedLSN, sessionBuffer)
	if err != nil {
		return nil, nil, false
	}
	frames := []Frame{{Type: FrameSnapshot, LSN: m.CutLSN(), Payload: base}}
	for _, payload := range c.Deltas {
		frames = append(frames, Frame{Type: FrameChanges, LSN: m.FeedLSN, Payload: payload})
	}
	return sub, frames, true
}
