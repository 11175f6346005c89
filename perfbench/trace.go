package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oms/backend"
	"repro/internal/repl"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch. Op groups the spans of one benchmark operation; a span with
// Parent 0 is a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept in memory; later spans still feed the
// per-name duration lists but are not written out.
const maxSpans = 500000

// tracer keeps spans in memory and writes them out at the end. A nil
// *tracer is valid and records nothing (the untraced configuration).
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	byName  map[string]*latencies
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byName: map[string]*latencies{}}
}

// open is a started span; end closes it.
type open struct {
	t     *tracer
	id    int64
	start time.Time
	s     span
}

// start opens a span named name under parent within op.
func (t *tracer) start(name string, op, parent int64) open {
	if t == nil {
		return open{}
	}
	now := time.Now()
	id := t.nextID.Add(1)
	return open{t: t, id: id, start: now, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(now.Sub(t.epoch))}}
}

// end closes the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := time.Now()
	o.s.End = int64(now.Sub(o.t.epoch))
	d := now.Sub(o.start)
	o.t.mu.Lock()
	if len(o.t.spans) < maxSpans {
		o.t.spans = append(o.t.spans, o.s)
	} else {
		o.t.dropped++
	}
	l := o.t.byName[o.s.Name]
	if l == nil {
		l = &latencies{}
		o.t.byName[o.s.Name] = l
	}
	l.add(d)
	o.t.mu.Unlock()
	return d
}

// durations returns every recorded duration of spans named name.
func (t *tracer) durations(name string) *latencies {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.byName[name]; l != nil {
		return &latencies{d: append([]time.Duration(nil), l.d...)}
	}
	return &latencies{}
}

// selfTimes returns, for every kept span named name, its duration minus
// the part of its interval covered by its child spans.
func (t *tracer) selfTimes(name string) *latencies {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := &latencies{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		out.add(time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID])))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend wraps a backend.Backend: every call is a span under the
// span the caller set with within, and calls are counted by kind. It
// forwards backend.DeltaCapable so the persistence layer keeps choosing
// differential saves exactly as it does on the bare backend.
type tracedBackend struct {
	inner  backend.Backend
	tr     *tracer
	prefix string // span name prefix, e.g. "backend" or "cas"

	op, parent atomic.Int64

	puts, deletes, gets atomic.Int64
	bytesPut            atomic.Int64
	basePuts            atomic.Int64
}

var _ backend.DeltaCapable = (*tracedBackend)(nil)

func newTracedBackend(inner backend.Backend, tr *tracer, prefix string) *tracedBackend {
	return &tracedBackend{inner: inner, tr: tr, prefix: prefix}
}

// within makes later calls children of parent in op.
func (b *tracedBackend) within(op, parent int64) {
	b.op.Store(op)
	b.parent.Store(parent)
}

func (b *tracedBackend) SupportsDeltas() bool {
	dc, ok := b.inner.(backend.DeltaCapable)
	return ok && dc.SupportsDeltas()
}

// putKind classifies a payload name the way the persistence layer names
// them: the oms@ base snapshot, a delta@ suffix, or a small payload
// (CURRENT, framework@N); anything else (CAS blobs) is a plain "put".
func putKind(name string) string {
	switch {
	case strings.HasPrefix(name, "oms@"):
		return "put_base"
	case strings.HasPrefix(name, "delta@"):
		return "put_delta"
	case name == backend.ManifestKey || strings.HasPrefix(name, "framework@"):
		return "put_small"
	}
	return "put"
}

func (b *tracedBackend) Put(name string, payload []byte) error {
	kind := putKind(name)
	sp := b.tr.start(b.prefix+"."+kind, b.op.Load(), b.parent.Load())
	err := b.inner.Put(name, payload)
	sp.end()
	b.puts.Add(1)
	b.bytesPut.Add(int64(len(payload)))
	if kind == "put_base" {
		b.basePuts.Add(1)
	}
	return err
}

func (b *tracedBackend) Get(name string) ([]byte, error) {
	sp := b.tr.start(b.prefix+".get", b.op.Load(), b.parent.Load())
	p, err := b.inner.Get(name)
	sp.end()
	b.gets.Add(1)
	return p, err
}

func (b *tracedBackend) List() ([]string, error) {
	sp := b.tr.start(b.prefix+".list", b.op.Load(), b.parent.Load())
	names, err := b.inner.List()
	sp.end()
	return names, err
}

func (b *tracedBackend) Delete(name string) error {
	sp := b.tr.start(b.prefix+".delete", b.op.Load(), b.parent.Load())
	err := b.inner.Delete(name)
	sp.end()
	b.deletes.Add(1)
	return err
}

// connCounts tallies frames through traced replication connections.
type connCounts struct {
	changeFrames, changeBytes atomic.Int64
}

// tracedListener wraps the publisher's listener so every accepted
// connection's Send and Recv are spans of their own.
type tracedListener struct {
	repl.Listener
	tr *tracer
	c  *connCounts
}

func (l *tracedListener) Accept() (repl.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, side: "pub", c: l.c}, nil
}

// tracedDialer wraps the replica's dialer the same way.
type tracedDialer struct {
	repl.Dialer
	tr *tracer
	c  *connCounts
}

func (d *tracedDialer) Dial() (repl.Conn, error) {
	c, err := d.Dialer.Dial()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: d.tr, side: "replica", c: d.c}, nil
}

type tracedConn struct {
	repl.Conn
	tr   *tracer
	side string
	c    *connCounts
}

func (c *tracedConn) Send(f repl.Frame) error {
	sp := c.tr.start("repl."+c.side+".send", 0, 0)
	err := c.Conn.Send(f)
	sp.end()
	if c.side == "pub" && f.Type == repl.FrameChanges {
		c.c.changeFrames.Add(1)
		c.c.changeBytes.Add(int64(len(f.Payload)))
	}
	return err
}

func (c *tracedConn) Recv() (repl.Frame, error) {
	sp := c.tr.start("repl."+c.side+".recv", 0, 0)
	f, err := c.Conn.Recv()
	sp.end()
	return f, err
}
