package oms

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atomicU64 is a tiny alias keeping the stress test readable.
type atomicU64 = atomic.Uint64

// feedSchema builds the small schema the feed tests share.
func feedSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddClass("Cell",
		AttrDef{Name: "name", Kind: KindString, Required: true},
		AttrDef{Name: "rev", Kind: KindInt},
		AttrDef{Name: "data", Kind: KindBlob}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("Version",
		AttrDef{Name: "num", Kind: KindInt, Required: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRel(RelDef{Name: "hasVersion", From: "Cell", To: "Version",
		FromCard: One, ToCard: Many}); err != nil {
		t.Fatal(err)
	}
	return s
}

// fingerprint renders the store's full content deterministically with
// the allocator position masked out (failed batches burn OIDs without
// leaving records, so replayed stores may disagree on next_oid while
// agreeing on every object and link).
func fingerprint(t testing.TB, st *Store) string {
	t.Helper()
	var b strings.Builder
	for _, h := range st.Snapshot().objs {
		fmt.Fprintf(&b, "%d %s", h.oid, h.class)
		for _, name := range sortedKeys(nil, h.attrs) {
			v := h.attrs[name]
			fmt.Fprintf(&b, " %s=%s", name, v)
			if v.Kind == KindBlob {
				fmt.Fprintf(&b, "%x", v.Blob)
			}
		}
		for _, rel := range sortedKeys(nil, h.links) {
			fmt.Fprintf(&b, " %s->%v", rel, h.links[rel])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// replayed rebuilds a store from a change sequence starting at LSN 1
// via the wire format, applied the way a replica applies it.
func replayed(t *testing.T, schema *Schema, recs []Change) *Store {
	t.Helper()
	payload := EncodeChanges(recs)
	decoded, err := DecodeChanges(payload)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(schema)
	if err := st.ApplyReplicated(decoded); err != nil {
		t.Fatal(err)
	}
	if got, want := st.FeedLSN(), uint64(len(recs)); got != want {
		t.Fatalf("replayed store at LSN %d, want %d", got, want)
	}
	return st
}

// TestFeedSequencedRecords: every committed single op appears in the
// feed exactly once, in contiguous LSN order, carrying the op's content.
func TestFeedSequencedRecords(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	cell, err := createOne(st, "Cell", map[string]Value{"name": S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := createOne(st, "Version", map[string]Value{"num": I(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := linkOne(st, "hasVersion", cell, v1); err != nil {
		t.Fatal(err)
	}
	// Re-linking a linked pair is a no-op and publishes nothing.
	if err := linkOne(st, "hasVersion", cell, v1); err != nil {
		t.Fatal(err)
	}
	if err := setOne(st, cell, "rev", I(7)); err != nil {
		t.Fatal(err)
	}
	if err := unlinkOne(st, "hasVersion", cell, v1); err != nil {
		t.Fatal(err)
	}
	// Idempotent no-ops publish nothing.
	if err := unlinkOne(st, "hasVersion", cell, v1); err != nil {
		t.Fatal(err)
	}
	recs, ok := st.Changes(0)
	if !ok {
		t.Fatal("feed reported eviction on a fresh store")
	}
	wantKinds := []ChangeKind{ChangeCreate, ChangeCreate, ChangeLink, ChangeSet, ChangeUnlink}
	if len(recs) != len(wantKinds) {
		t.Fatalf("feed has %d records, want %d: %+v", len(recs), len(wantKinds), recs)
	}
	for i, c := range recs {
		if c.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, c.LSN, i+1)
		}
		if c.Kind != wantKinds[i] {
			t.Fatalf("record %d kind = %v, want %v", i, c.Kind, wantKinds[i])
		}
		if c.Group != c.LSN {
			t.Fatalf("single op record %d has group %d != lsn %d", i, c.Group, c.LSN)
		}
	}
	if recs[0].Class != "Cell" || recs[0].Attrs["name"].Str != "alu" {
		t.Fatalf("create record content: %+v", recs[0])
	}
	if recs[3].Attr != "rev" || recs[3].Value.Int != 7 || recs[3].Class != "Cell" {
		t.Fatalf("set record content: %+v", recs[3])
	}
	if st.FeedLSN() != 5 {
		t.Fatalf("FeedLSN = %d, want 5", st.FeedLSN())
	}
	// Suffix reads honour the cursor.
	tail, ok := st.Changes(3)
	if !ok || len(tail) != 2 || tail[0].LSN != 4 {
		t.Fatalf("Changes(3) = %+v, %t", tail, ok)
	}
	// Replay reproduces the store exactly.
	if got, want := fingerprint(t, replayed(t, schema, recs)), fingerprint(t, st); got != want {
		t.Fatalf("replayed store diverges:\n got %s\nwant %s", got, want)
	}
}

// TestFeedBatchGroup: an Apply publishes one contiguous group; a failed
// Apply publishes nothing at all.
func TestFeedBatchGroup(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	before := st.FeedLSN()
	b := NewBatch()
	cell := b.Create("Cell", map[string]Value{"name": S("alu")})
	ver := b.Create("Version", map[string]Value{"num": I(1)})
	b.Link("hasVersion", cell, ver)
	b.Set(cell, "rev", I(1))
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	recs, _ := st.Changes(before)
	if len(recs) != 4 {
		t.Fatalf("batch published %d records, want 4", len(recs))
	}
	for _, c := range recs {
		if c.Group != recs[0].LSN {
			t.Fatalf("batch group torn: %+v", recs)
		}
	}

	// Failed batch: the Version class requires num, so op 2 fails after
	// op 1 applied — nothing may reach the feed.
	before = st.FeedLSN()
	fb := NewBatch()
	fb.Create("Cell", map[string]Value{"name": S("mul")})
	fb.Link("hasVersion", -1, OID(999999)) // no such target: fails mid-batch
	if _, err := st.Apply(fb); err == nil {
		t.Fatal("batch with dangling link applied")
	}
	if recs, _ := st.Changes(before); len(recs) != 0 {
		t.Fatalf("failed batch leaked %d records into the feed", len(recs))
	}
}

// TestFeedDeleteCascadeGroup: Delete publishes its link detaches and the
// removal as one group, and replay honours it.
func TestFeedDeleteCascadeGroup(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	cell, _ := createOne(st, "Cell", map[string]Value{"name": S("alu")})
	v1, _ := createOne(st, "Version", map[string]Value{"num": I(1)})
	v2, _ := createOne(st, "Version", map[string]Value{"num": I(2)})
	if err := linkOne(st, "hasVersion", cell, v1); err != nil {
		t.Fatal(err)
	}
	if err := linkOne(st, "hasVersion", cell, v2); err != nil {
		t.Fatal(err)
	}
	before := st.FeedLSN()
	if err := deleteOne(st, cell); err != nil {
		t.Fatal(err)
	}
	recs, _ := st.Changes(before)
	if len(recs) != 3 { // 2 unlinks + 1 delete
		t.Fatalf("delete cascade published %d records, want 3: %+v", len(recs), recs)
	}
	for _, c := range recs {
		if c.Group != recs[0].LSN {
			t.Fatal("delete cascade split across groups")
		}
	}
	if recs[len(recs)-1].Kind != ChangeDelete {
		t.Fatalf("cascade must end with the delete record: %+v", recs)
	}
	all, _ := st.Changes(0)
	if got, want := fingerprint(t, replayed(t, schema, all)), fingerprint(t, st); got != want {
		t.Fatalf("replayed store diverges after delete:\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotLSNAnchorsDelta: a snapshot plus the change suffix after
// its LSN reproduces the live store — the differential-save contract.
func TestSnapshotLSNAnchorsDelta(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	cell, _ := createOne(st, "Cell", map[string]Value{"name": S("alu")})
	snap := st.Snapshot()
	if snap.LSN() != st.FeedLSN() {
		t.Fatalf("snapshot LSN %d != feed LSN %d", snap.LSN(), st.FeedLSN())
	}
	// Mutations after the cut.
	v, _ := createOne(st, "Version", map[string]Value{"num": I(1)})
	if err := linkOne(st, "hasVersion", cell, v); err != nil {
		t.Fatal(err)
	}
	if err := setOne(st, cell, "data", Bytes([]byte("netlist"))); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(schema)
	if err := restored.ResetFromSnapshot(snap.Encode(), snap.LSN()); err != nil {
		t.Fatal(err)
	}
	delta, ok := st.Changes(snap.LSN())
	if !ok {
		t.Fatal("delta evicted")
	}
	payload := EncodeChanges(delta)
	decoded, err := DecodeChanges(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ApplyReplicated(decoded); err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, restored), fingerprint(t, st); got != want {
		t.Fatalf("base+delta diverges from live store:\n got %s\nwant %s", got, want)
	}
	if got, want := restored.FeedLSN(), st.FeedLSN(); got != want {
		t.Fatalf("base+delta store at LSN %d, want %d", got, want)
	}
}

// TestFeedEviction: once the ring wraps, stale cursors are told the
// range is incomplete and stale Watch starts are refused.
func TestFeedEviction(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	cell, _ := createOne(st, "Cell", map[string]Value{"name": S("alu")})
	for i := 0; i < feedMaxRecords+10; i++ {
		if err := setOne(st, cell, "rev", I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.Changes(0); ok {
		t.Fatal("evicted range reported complete")
	}
	if _, err := st.Watch(0, 1); err == nil {
		t.Fatal("watch from evicted position accepted")
	}
	// A fresh cursor still works.
	if recs, ok := st.Changes(st.FeedLSN() - 5); !ok || len(recs) != 5 {
		t.Fatalf("recent suffix: ok=%t len=%d", ok, len(recs))
	}
}

// TestFeedWatchDelivery: a subscriber sees every group whole and in
// order, and Close terminates the stream.
func TestFeedWatchDelivery(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	sub, err := st.Watch(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := createOne(st, "Cell", map[string]Value{"name": S("alu")})
	b := NewBatch()
	v := b.Create("Version", map[string]Value{"num": I(1)})
	b.Link("hasVersion", cell, v)
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	var groups [][]Change
	deadline := time.After(5 * time.Second)
	for lsn := uint64(0); lsn < 3; {
		select {
		case g := <-sub.C():
			groups = append(groups, g)
			lsn = g[len(g)-1].LSN
		case <-deadline:
			t.Fatalf("timed out; got %d groups", len(groups))
		}
	}
	if len(groups) != 2 || len(groups[0]) != 1 || len(groups[1]) != 2 {
		t.Fatalf("group shapes wrong: %+v", groups)
	}
	sub.Close()
	for range sub.C() {
	}
	if sub.Lagged() {
		t.Fatal("clean close reported lag")
	}
}

// TestFeedWatchCloseWhileBlocked: Close must terminate a delivery
// goroutine that is parked on a send to a consumer that stopped
// receiving — the channel closes instead of leaking the goroutine.
func TestFeedWatchCloseWhileBlocked(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	cell, _ := createOne(st, "Cell", map[string]Value{"name": S("alu")})
	sub, err := st.Watch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Far more groups than the channel buffer; the delivery goroutine
	// must end up blocked in the send.
	for i := 0; i < 64; i++ {
		if err := setOne(st, cell, "rev", I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the goroutine park on the send
	sub.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.C():
			if !ok {
				return // channel closed: the goroutine exited
			}
		case <-deadline:
			t.Fatal("delivery channel never closed after Close")
		}
	}
}

// TestFeedConformanceStress is the acceptance stress: concurrent
// designers issue grouped and single mutations against one store while
// a Watch subscriber and polling Changes readers consume the feed. Every
// committed op must appear exactly once, in contiguous LSN order, groups
// must arrive whole, and replaying everything must rebuild the exact
// store. Run under -race by `make stress-feed`.
func TestFeedConformanceStress(t *testing.T) {
	schema := feedSchema(t)
	st := NewStore(schema)
	const designers = 8
	const perDesigner = 120

	sub, err := st.Watch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Collector: drains groups, checking contiguity and group integrity.
	// `collected` is collector-owned until collectorDone is received.
	var collected []Change
	var delivered atomicU64
	collectorDone := make(chan error, 1)
	go func() {
		nextLSN := uint64(1)
		for g := range sub.C() {
			if len(g) == 0 {
				collectorDone <- fmt.Errorf("empty group delivered")
				return
			}
			for _, c := range g {
				if c.LSN != nextLSN {
					collectorDone <- fmt.Errorf("gap: got LSN %d, want %d", c.LSN, nextLSN)
					return
				}
				if c.Group != g[0].LSN {
					collectorDone <- fmt.Errorf("torn group at LSN %d", c.LSN)
					return
				}
				nextLSN++
			}
			collected = append(collected, g...)
			delivered.Store(g[len(g)-1].LSN)
		}
		collectorDone <- nil
	}()

	var wg sync.WaitGroup
	for d := 0; d < designers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var myCell OID
			for i := 0; i < perDesigner; i++ {
				switch i % 3 {
				case 0: // grouped checkin shape
					b := NewBatch()
					c := b.Create("Cell", map[string]Value{"name": S(fmt.Sprintf("c-%d-%d", d, i))})
					v := b.Create("Version", map[string]Value{"num": I(int64(i))})
					b.Link("hasVersion", c, v)
					created, err := st.Apply(b)
					if err != nil {
						t.Errorf("designer %d: %v", d, err)
						return
					}
					myCell = created[0]
				case 1: // single-op attribute traffic
					if err := setOne(st, myCell, "rev", I(int64(i))); err != nil {
						t.Errorf("designer %d: %v", d, err)
						return
					}
				case 2: // occasional polling reader riding its own cursor
					if _, ok := st.Changes(st.FeedLSN()); !ok {
						t.Errorf("designer %d: cursor at watermark reported evicted", d)
						return
					}
				}
			}
		}(d)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Wait until the subscriber has drained everything, then stop it.
	final := st.FeedLSN()
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < final {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber stuck at %d of %d", delivered.Load(), final)
		}
		time.Sleep(time.Millisecond)
	}
	sub.Close()
	if err := <-collectorDone; err != nil {
		t.Fatal(err)
	}
	if sub.Lagged() {
		t.Fatal("subscriber lagged on an in-retention run")
	}
	if uint64(len(collected)) != final {
		t.Fatalf("subscriber delivered %d records, feed committed %d", len(collected), final)
	}

	// Exactly-once, in-order content check against a polled copy.
	polled, ok := st.Changes(0)
	if !ok {
		t.Fatal("full range evicted")
	}
	if len(polled) != len(collected) {
		t.Fatalf("polled %d records, subscribed %d", len(polled), len(collected))
	}
	seen := map[uint64]bool{}
	for i, c := range collected {
		if seen[c.LSN] {
			t.Fatalf("LSN %d delivered twice", c.LSN)
		}
		seen[c.LSN] = true
		if polled[i].LSN != c.LSN || polled[i].Kind != c.Kind {
			t.Fatalf("subscriber and poller disagree at index %d", i)
		}
	}

	// Replay fidelity: the collected stream rebuilds the exact store.
	if got, want := fingerprint(t, replayed(t, schema, collected)), fingerprint(t, st); got != want {
		t.Fatal("replayed store diverges from live store under concurrency")
	}
	// Every committed create appears exactly once.
	creates := 0
	for _, c := range collected {
		if c.Kind == ChangeCreate {
			creates++
		}
	}
	if want := st.Count(""); creates != want {
		t.Fatalf("%d create records for %d live objects", creates, want)
	}
}
