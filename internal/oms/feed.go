package oms

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrFeedGap reports that a replicated change sequence does not attach
// contiguously to the store's committed feed position — the stream
// skipped records. A consumer that sees it must resynchronize (reconnect
// with its applied LSN, or re-bootstrap from a snapshot); nothing has
// been applied.
var ErrFeedGap = errors.New("oms: change sequence does not attach to the feed position")

// The sequenced change feed.
//
// Every committed mutation of the store — every Apply batch, one op or
// many — emits Change records into an in-store ring log, stamped
// with a monotonic commit LSN. The LSN is assigned while the mutation still
// holds its stripe write locks, so the feed order is a valid
// serialization of the store's history: two conflicting operations
// serialize on a shared stripe and publish in that order, and
// non-conflicting operations commute. Applying a feed suffix
// (ApplyReplicated) over a snapshot installed at its LSN
// (ResetFromSnapshot) therefore reproduces the live store exactly, at
// the same LSNs — the property replication (internal/repl), the
// differential persistence layer's load (internal/jcf) and the coupling
// layer (internal/core) are built on.
//
// Groups: a batch (Store.Apply), a staged Delete's removal plus every
// link detach included, commits as ONE contiguous group of records —
// published under a single feed-mutex hold, with the committed LSN
// advanced once, after the whole group is in the ring. A
// reader can therefore never observe a torn group: Changes and Watch
// only ever see group-complete prefixes, and Watch delivers each group
// as one message. A failed batch publishes nothing, so the feed never
// carries an effect the store does not have.
//
// The ring is bounded (growing geometrically up to feedMaxRecords), so
// the feed pins at most that many records — including any blob Values
// they carry (blob bytes are shared with the store, immutable once
// stored, exactly like Snapshot sharing). A consumer that falls behind
// the ring's retention is told so: Changes reports incompleteness and a
// Watch subscription closes with Lagged() true, and the consumer falls
// back to a full snapshot.

// ChangeKind enumerates the feed record types.
type ChangeKind int

// Change kinds.
const (
	ChangeCreate ChangeKind = iota
	ChangeSet
	ChangeLink
	ChangeUnlink
	ChangeDelete
)

// String returns the wire name of the kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeCreate:
		return "create"
	case ChangeSet:
		return "set"
	case ChangeLink:
		return "link"
	case ChangeUnlink:
		return "unlink"
	case ChangeDelete:
		return "delete"
	}
	return fmt.Sprintf("ChangeKind(%d)", int(k))
}

// Change is one sequenced feed record. Records handed to consumers are
// value copies, but Attrs (and blob Values) share backing storage with
// the feed and the store — consumers must treat them as read-only.
type Change struct {
	// LSN is the record's position in the commit sequence (1-based,
	// contiguous, never reused).
	LSN uint64
	// Group is the LSN of the first record of the record's commit group.
	// Single ops form a group of one (Group == LSN); a batch and a
	// Delete's cascade share one Group.
	Group uint64

	Kind ChangeKind

	// OID and Class identify the target of Create, Set and Delete.
	OID   OID
	Class string

	// Attrs carries the initial attribute values of a Create.
	Attrs map[string]Value

	// Attr/Value carry a Set.
	Attr  string
	Value Value

	// Rel/From/To carry a Link or Unlink.
	Rel      string
	From, To OID
}

const (
	// feedInitRecords is the ring's starting capacity; it doubles on
	// demand until feedMaxRecords, so idle stores pay almost nothing.
	feedInitRecords = 256
	// feedMaxRecords bounds the ring: the retention window a consumer
	// may fall behind before it must resynchronize from a snapshot.
	feedMaxRecords = 1 << 15
	// feedMaxBlobBytes bounds the design-data bytes the ring may pin.
	// Records share blob backing arrays with the store (cheap to
	// publish), but unlike a Snapshot the ring is steady state: without
	// a byte bound, 32k retained checkin records of large design files
	// would pin gigabytes as feed history even with no consumer.
	// Crossing the bound evicts oldest records early — consumers see an
	// ordinary (explicit) retention miss and resynchronize.
	feedMaxBlobBytes = 64 << 20
)

// changeBlobBytes is the blob payload a retained record pins.
func changeBlobBytes(c Change) int {
	n := 0
	if c.Value.Kind == KindBlob {
		n += len(c.Value.Blob)
	}
	for _, v := range c.Attrs {
		if v.Kind == KindBlob {
			n += len(v.Blob)
		}
	}
	return n
}

// feed is the in-store ring log. Its mutex is a leaf lock:
// publish() is called while stripe write locks are held, and readers
// (Changes, Watch goroutines) take only feedMu.
type feed struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf holds records [start..last]; record L lives at buf[(L-1)%len].
	// len(buf) grows geometrically up to feedMaxRecords. The ring is
	// empty while last < start (start begins at 1).
	buf   []Change
	start uint64 // oldest retained LSN
	last  uint64 // highest committed LSN
	subs  int    // live Watch subscriptions (diagnostics)
	// blobBytes tracks the blob payload currently pinned by retained
	// records, for the feedMaxBlobBytes eviction bound.
	blobBytes int

	// Atomic mirrors of start/last/subs, stored under f.mu wherever the
	// guarded fields move, plus eviction/lag counters — the lock-free
	// source for FeedStats and /metrics, so a scrape never touches the
	// feed lock a commit is holding.
	startA    atomic.Uint64
	lastA     atomic.Uint64
	subsA     atomic.Int64
	evictions obs.Counter
	lagTrips  obs.Counter
}

func newFeed() *feed {
	f := &feed{start: 1}
	f.startA.Store(1)
	f.cond = sync.NewCond(&f.mu)
	return f
}

// publish appends one commit group, assigning contiguous LSNs. The
// caller holds the write locks of every stripe the group mutated, so
// the assigned order agrees with visibility order. The committed
// watermark (f.last) moves once, after the whole group is in the ring —
// that is what makes groups untearable.
func (f *feed) publish(group []Change) {
	if len(group) == 0 {
		return
	}
	f.mu.Lock()
	// Grow the ring before wrapping while it is still small.
	need := int(f.last+1-f.start) + len(group)
	for len(f.buf) < need && len(f.buf) < feedMaxRecords {
		f.grow()
	}
	first := f.last + 1
	for i := range group {
		lsn := first + uint64(i)
		group[i].LSN = lsn
		group[i].Group = first
		// A full ring overwrites its oldest record: account its blob
		// payload out before the slot is reused.
		if lsn-f.start >= uint64(len(f.buf)) {
			f.evictOldest()
		}
		f.buf[(lsn-1)%uint64(len(f.buf))] = group[i]
		f.blobBytes += changeBlobBytes(group[i])
		f.last = lsn
	}
	// The byte bound: shed oldest records until the pinned design data
	// fits (a single oversized group may evict itself — consumers then
	// resynchronize, which is the explicit contract).
	for f.blobBytes > feedMaxBlobBytes && f.start <= f.last {
		f.evictOldest()
	}
	f.lastA.Store(f.last)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// publishAt appends one or more whole commit groups whose LSNs were
// assigned elsewhere — by a primary's feed — preserving them, so a
// follower store's feed mirrors the primary's commit sequence record for
// record (which is what lets a replica serve Watch consumers, anchor
// differential saves, and act as a publisher itself). The records must
// attach exactly at the committed watermark and be contiguous; a
// mismatch returns ErrFeedGap without touching the ring. The caller
// holds the write locks of every stripe the records mutated, exactly
// like publish.
func (f *feed) publishAt(group []Change) error {
	if len(group) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if group[0].LSN != f.last+1 {
		return fmt.Errorf("%w: records start at %d, feed is at %d", ErrFeedGap, group[0].LSN, f.last)
	}
	for i := range group {
		if group[i].LSN != group[0].LSN+uint64(i) {
			return fmt.Errorf("%w: record %d follows %d", ErrFeedGap, group[i].LSN, group[0].LSN+uint64(i)-1)
		}
	}
	need := int(f.last+1-f.start) + len(group)
	for len(f.buf) < need && len(f.buf) < feedMaxRecords {
		f.grow()
	}
	for i := range group {
		lsn := group[i].LSN
		if lsn-f.start >= uint64(len(f.buf)) {
			f.evictOldest()
		}
		f.buf[(lsn-1)%uint64(len(f.buf))] = group[i]
		f.blobBytes += changeBlobBytes(group[i])
		f.last = lsn
	}
	for f.blobBytes > feedMaxBlobBytes && f.start <= f.last {
		f.evictOldest()
	}
	f.lastA.Store(f.last)
	f.cond.Broadcast()
	return nil
}

// rebase empties the ring and repositions the committed watermark at
// lsn — the feed of a store whose whole content was just replaced by a
// base snapshot cut at that LSN.
// Live subscriptions wake: ones whose cursor no longer attaches (the
// usual case after a re-bootstrap) close with Lagged() true and their
// consumers resynchronize.
func (f *feed) rebase(lsn uint64) {
	f.mu.Lock()
	for i := range f.buf {
		f.buf[i] = Change{} // unpin retained blobs
	}
	f.blobBytes = 0
	f.start, f.last = lsn+1, lsn
	f.startA.Store(f.start)
	f.lastA.Store(f.last)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// evictOldest drops the oldest retained record; caller holds f.mu and
// guarantees the ring is non-empty.
func (f *feed) evictOldest() {
	f.blobBytes -= changeBlobBytes(f.buf[(f.start-1)%uint64(len(f.buf))])
	f.buf[(f.start-1)%uint64(len(f.buf))] = Change{} // unpin
	f.start++
	f.startA.Store(f.start)
	f.evictions.Inc()
}

// grow doubles the ring, re-laying the retained records out in the new
// modulus; caller holds f.mu.
func (f *feed) grow() {
	newCap := feedInitRecords
	if len(f.buf) > 0 {
		newCap = len(f.buf) * 2
	}
	if newCap > feedMaxRecords {
		newCap = feedMaxRecords
	}
	nb := make([]Change, newCap)
	for lsn := f.start; lsn <= f.last; lsn++ {
		nb[(lsn-1)%uint64(newCap)] = f.buf[(lsn-1)%uint64(len(f.buf))]
	}
	f.buf = nb
}

// lsn returns the committed watermark.
func (f *feed) lsn() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// collectLocked copies records (since..last]; ok=false when the ring
// has already evicted part of that range. Caller holds f.mu.
func (f *feed) collectLocked(since uint64) ([]Change, bool) {
	if since >= f.last {
		return nil, true
	}
	if since+1 < f.start {
		return nil, false
	}
	out := make([]Change, 0, f.last-since)
	for lsn := since + 1; lsn <= f.last; lsn++ {
		out = append(out, f.buf[(lsn-1)%uint64(len(f.buf))])
	}
	return out, true
}

// --- Store API --------------------------------------------------------

// FeedLSN returns the LSN of the most recently committed change (0 for
// a store that has never been mutated).
func (st *Store) FeedLSN() uint64 { return st.feed.lsn() }

// Changes returns every committed change with LSN > since, in LSN
// order, and whether the range is complete: false means the ring has
// evicted records after `since` and the caller must resynchronize from
// a snapshot. Group boundaries are preserved — the result never ends
// mid-group, because the committed watermark only ever advances by
// whole groups.
func (st *Store) Changes(since uint64) ([]Change, bool) {
	f := st.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.collectLocked(since)
}

// Subscription is a live Watch feed cursor. Groups arrive on C(), one
// complete commit group per message, in LSN order. A subscription that
// falls behind the ring's retention window is closed with Lagged()
// true; the consumer resynchronizes from a snapshot.
type Subscription struct {
	f    *feed
	ch   chan []Change
	done chan struct{} // closed by Close; unblocks a parked delivery send
	next uint64

	mu     sync.Mutex
	closed bool
	lagged bool
}

// Watch subscribes to the change feed starting after `since`. Pass a
// committed boundary LSN — 0, st.FeedLSN(), a Snapshot's LSN, or the
// last LSN of a group a consumer already processed; the watermark only
// advances by whole groups, so every such value sits on a group
// boundary and delivery can never start mid-group. buf is the channel
// depth; delivery happens on a dedicated goroutine, so slow consumers
// never block writers — they can only lag and lose the subscription.
// An error is returned when records after `since` have already been
// evicted.
func (st *Store) Watch(since uint64, buf int) (*Subscription, error) {
	f := st.feed
	f.mu.Lock()
	if since+1 < f.start && since < f.last {
		start := f.start // capture under f.mu; the error renders it unlocked
		f.mu.Unlock()
		return nil, fmt.Errorf("oms: watch from %d: records before %d already evicted", since, start)
	}
	f.subs++
	f.subsA.Add(1)
	f.mu.Unlock()
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{
		f:    f,
		ch:   make(chan []Change, buf),
		done: make(chan struct{}),
		next: since + 1,
	}
	go sub.run()
	return sub, nil
}

// C returns the delivery channel. It is closed when the subscription is
// Closed or falls behind the ring (check Lagged).
func (s *Subscription) C() <-chan []Change { return s.ch }

// Lagged reports whether the subscription was closed because the ring
// evicted records it had not yet delivered.
func (s *Subscription) Lagged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagged
}

// Close cancels the subscription. The delivery channel is closed once
// the delivery goroutine exits — whether it was waiting for records
// (the cond broadcast wakes it) or parked on a send to a consumer that
// stopped receiving (the done channel unblocks it). Close is
// idempotent. (s.mu is released before f.mu is taken, so Close never
// nests the two locks — the delivery goroutine nests them the other
// way around.)
func (s *Subscription) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
	s.f.mu.Lock()
	s.f.cond.Broadcast()
	s.f.mu.Unlock()
}

func (s *Subscription) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// run is the delivery goroutine: wait for records past the cursor,
// gather the committed suffix, deliver it group by group. Delivery
// happens outside feedMu, so a blocked receiver never blocks writers.
func (s *Subscription) run() {
	f := s.f
	defer func() {
		f.mu.Lock()
		f.subs--
		f.subsA.Add(-1)
		f.mu.Unlock()
		close(s.ch)
	}()
	for {
		f.mu.Lock()
		for f.last < s.next && !s.isClosed() {
			f.cond.Wait()
		}
		if s.isClosed() {
			f.mu.Unlock()
			return
		}
		pending, ok := f.collectLocked(s.next - 1)
		f.mu.Unlock()
		if !ok {
			s.mu.Lock()
			s.lagged = true
			s.mu.Unlock()
			f.lagTrips.Inc()
			return
		}
		s.next = pending[len(pending)-1].LSN + 1
		for len(pending) > 0 {
			g := pending[0].Group
			n := 1
			for n < len(pending) && pending[n].Group == g {
				n++
			}
			select {
			case s.ch <- pending[:n:n]:
			case <-s.done:
				return
			}
			pending = pending[n:]
		}
	}
}

// replayOneLocked applies one decoded record — ApplyReplicated's body.
// Records are applied raw (no cardinality re-checking, no undo) but are
// validated against the schema, so a record written against a different
// schema, or one that disagrees with the store's state, fails loudly
// instead of corrupting the store. The caller holds every stripe's
// write lock.
func (st *Store) replayOneLocked(c Change) error {
	switch c.Kind {
	case ChangeCreate:
		cls := st.schema.class(c.Class)
		if cls == nil {
			return fmt.Errorf("unknown class %q", c.Class)
		}
		obj := newObject(c.OID, c.Class)
		for name, v := range c.Attrs {
			def, ok := cls.attr(name)
			if !ok {
				return fmt.Errorf("class %q has no attribute %q", c.Class, name)
			}
			if !kindCompatible(def.Kind, v.Kind) {
				return fmt.Errorf("attribute %s.%s wants %s, got %s", c.Class, name, def.Kind, v.Kind)
			}
			obj.attrs[name] = v
		}
		s := st.stripeOf(c.OID)
		s.objects[c.OID] = obj
		s.addClass(c.Class, c.OID)
		st.allocMu.Lock()
		if c.OID >= st.nextOID {
			st.nextOID = c.OID + 1
		}
		st.allocMu.Unlock()
	case ChangeSet:
		obj, ok := st.stripeOf(c.OID).objects[c.OID]
		if !ok {
			return fmt.Errorf("no object %d", c.OID)
		}
		def, ok := st.schema.class(obj.class).attr(c.Attr)
		if !ok {
			return fmt.Errorf("class %q has no attribute %q", obj.class, c.Attr)
		}
		if !kindCompatible(def.Kind, c.Value.Kind) {
			return fmt.Errorf("attribute %s.%s wants %s, got %s", obj.class, c.Attr, def.Kind, c.Value.Kind)
		}
		obj.attrs[c.Attr] = c.Value
	case ChangeLink:
		if st.schema.rel(c.Rel) == nil {
			return fmt.Errorf("unknown relationship %q", c.Rel)
		}
		fobj, ok := st.stripeOf(c.From).objects[c.From]
		if !ok {
			return fmt.Errorf("no object %d", c.From)
		}
		tobj, ok := st.stripeOf(c.To).objects[c.To]
		if !ok {
			return fmt.Errorf("no object %d", c.To)
		}
		if fobj.links[c.Rel] == nil {
			fobj.links[c.Rel] = map[OID]bool{}
		}
		if tobj.backlinks[c.Rel] == nil {
			tobj.backlinks[c.Rel] = map[OID]bool{}
		}
		fobj.links[c.Rel][c.To] = true
		tobj.backlinks[c.Rel][c.From] = true
		st.stripeOf(c.From).addRelFrom(c.Rel, c.From)
	case ChangeUnlink:
		st.unlinkNoUndo(c.Rel, c.From, c.To)
	case ChangeDelete:
		s := st.stripeOf(c.OID)
		obj, ok := s.objects[c.OID]
		if !ok {
			return fmt.Errorf("no object %d", c.OID)
		}
		// The feed emits the cascade unlinks before the delete record, so
		// a well-formed feed deletes an already-detached object; stray
		// links are detached defensively anyway.
		for rel, targets := range obj.links {
			for to := range targets {
				st.unlinkNoUndo(rel, c.OID, to)
			}
		}
		for rel, sources := range obj.backlinks {
			for from := range sources {
				st.unlinkNoUndo(rel, from, c.OID)
			}
		}
		delete(s.objects, c.OID)
		s.delClass(obj.class, c.OID)
	default:
		return fmt.Errorf("unknown change kind %d", int(c.Kind))
	}
	return nil
}
