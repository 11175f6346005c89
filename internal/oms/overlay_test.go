package oms

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// mergeModel is the plain-map reference of a store's content: objects
// with their class, attributes and outgoing links, and the allocator.
type mergeModel struct {
	next OID
	objs map[OID]*modelObj
}

type modelObj struct {
	class string
	attrs map[string]Value
	links map[string]map[OID]bool
}

func (m *mergeModel) live() []OID {
	out := make([]OID, 0, len(m.objs))
	for oid := range m.objs {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// pick returns the arg-th live object of class (wrapping), or false.
func (m *mergeModel) pick(class string, arg byte) (OID, bool) {
	var of []OID
	for _, oid := range m.live() {
		if m.objs[oid].class == class {
			of = append(of, oid)
		}
	}
	if len(of) == 0 {
		return InvalidOID, false
	}
	return of[int(arg)%len(of)], true
}

// runMergeScript interprets script as (op, arg) byte pairs against a
// store and the model, up to maxScriptOps of them (the model's picks are
// quadratic). The base cut is taken before the op that the first byte
// selects; the overlay at the end.
func runMergeScript(t *testing.T, schema *Schema, script []byte) (st *Store, m *mergeModel, base []byte, ov *Overlay) {
	t.Helper()
	const maxScriptOps = 256
	script = script[:min(len(script), 2*maxScriptOps)]
	st = NewStore(schema)
	m = &mergeModel{next: 1, objs: map[OID]*modelObj{}}
	cutAt := 0
	if len(script) > 0 {
		cutAt = int(script[0]) % (len(script)/2 + 1)
	}
	var baseLSN uint64
	create := func(class string, attrs map[string]Value) {
		oid, err := createOne(st, class, attrs)
		if err != nil {
			t.Fatal(err)
		}
		m.objs[oid] = &modelObj{class: class, attrs: maps.Clone(attrs), links: map[string]map[OID]bool{}}
		m.next = oid + 1
	}
	for i := 0; i <= len(script)/2; i++ {
		if i == cutAt {
			sn := st.Snapshot()
			base, baseLSN = sn.Encode(), sn.LSN()
		}
		if i == len(script)/2 {
			break
		}
		op, arg := script[2*i], script[2*i+1]
		rel := "hasVersion"
		if arg&1 == 1 {
			rel = "master"
		}
		switch op % 7 {
		case 0:
			create("Cell", map[string]Value{"name": S(fmt.Sprintf("c%d", arg))})
		case 1:
			create("Version", map[string]Value{"num": I(int64(arg))})
		case 2:
			oid, ok := m.pick("Cell", arg)
			if !ok {
				continue
			}
			name, v := "rev", I(int64(arg))
			if arg&2 == 2 {
				name, v = "data", Bytes([]byte{arg, op})
			}
			if err := setOne(st, oid, name, v); err != nil {
				t.Fatal(err)
			}
			m.objs[oid].attrs[name] = v
		case 3:
			from, ok1 := m.pick("Cell", arg)
			to, ok2 := m.pick("Version", arg>>1)
			if !ok1 || !ok2 {
				continue
			}
			if linkOne(st, rel, from, to) != nil {
				continue // a cardinality the schema refuses
			}
			if m.objs[from].links[rel] == nil {
				m.objs[from].links[rel] = map[OID]bool{}
			}
			m.objs[from].links[rel][to] = true
		case 4:
			from, ok := m.pick("Cell", arg)
			if !ok {
				continue
			}
			ts := st.Targets(rel, from)
			if len(ts) == 0 {
				continue
			}
			to := ts[int(arg)%len(ts)]
			if err := unlinkOne(st, rel, from, to); err != nil {
				t.Fatal(err)
			}
			delete(m.objs[from].links[rel], to)
		case 5:
			live := m.live()
			if len(live) == 0 {
				continue
			}
			oid := live[int(arg)%len(live)]
			if err := deleteOne(st, oid); err != nil {
				t.Fatal(err)
			}
			delete(m.objs, oid)
			for _, o := range m.objs {
				for _, set := range o.links {
					delete(set, oid)
				}
			}
		case 6:
			b := NewBatch()
			b.Create("Cell", map[string]Value{"name": S("doomed")})
			b.Set(OID(1<<40), "rev", I(1)) // no such object
			if _, err := st.Apply(b); err == nil {
				t.Fatal("a batch naming a missing object committed")
			}
		}
	}
	ov, ok := st.Overlay(baseLSN)
	if !ok {
		t.Fatalf("overlay since %d: ring does not hold the records", baseLSN)
	}
	return st, m, base, ov
}

// nonEmptyLinks drops empty target sets, which a store may keep after
// its last unlink.
func nonEmptyLinks(links map[string]map[OID]bool) map[string]map[OID]bool {
	out := map[string]map[OID]bool{}
	for rel, set := range links {
		if len(set) > 0 {
			out[rel] = set
		}
	}
	return out
}

// FuzzMergeCheckpoint: a script of creates, sets, links, unlinks,
// cascade deletes and failing batches runs on a store and on a
// plain-map model, with a base cut taken part way. The base folded with
// the overlay since its cut must encode exactly what a full snapshot of
// the store encodes, and decode to the model's objects, attributes,
// links and allocator position. The script's bytes are also merged as
// an overlay of their own: whatever they hold must not panic, and a
// merge that succeeds must yield a well-formed base.
func FuzzMergeCheckpoint(f *testing.F) {
	schema := testSchema(f)
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 1, 1, 2, 3, 0, 2, 2, 0, 3})
	f.Add([]byte{4, 0, 0, 0, 1, 1, 2, 1, 3, 3, 1, 4, 0, 5, 1, 6, 0, 0, 7, 3, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 5, 0, 5, 1, 6, 9})
	// Cut after a Cell and a Version: a cascade delete and a failing
	// batch follow it.
	f.Add([]byte{7, 0, 1, 0, 5, 0, 6, 0})
	f.Add([]byte(overlayMagic + "\x01\x04\x01\x02\x04Cell\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, script []byte) {
		st, m, base, ov := runMergeScript(t, schema, script)
		merged, err := MergeCheckpoint(base, ov.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged, st.Snapshot().Encode()) {
			t.Fatal("base folded with overlay differs from a full snapshot")
		}
		got, err := DecodeSnapshot(merged, schema)
		if err != nil {
			t.Fatal(err)
		}
		if got.nextOID != m.next {
			t.Fatalf("merged allocator at %d, model at %d", got.nextOID, m.next)
		}
		if n := got.Count(""); n != len(m.objs) {
			t.Fatalf("merged store holds %d objects, model %d", n, len(m.objs))
		}
		for oid, want := range m.objs {
			obj, ok := got.stripeOf(oid).objects[oid]
			if !ok {
				t.Fatalf("object %d missing after merge", oid)
			}
			if obj.class != want.class || !reflect.DeepEqual(obj.attrs, want.attrs) ||
				!reflect.DeepEqual(nonEmptyLinks(obj.links), nonEmptyLinks(want.links)) {
				t.Fatalf("object %d after merge: %s %v %v, model %s %v %v",
					oid, obj.class, obj.attrs, obj.links, want.class, want.attrs, want.links)
			}
		}

		raw, err := MergeCheckpoint(base, script)
		if err != nil {
			return
		}
		d := &snapDecoder{buf: raw[len(snapMagic)+1:]}
		d.varint()
		d.spans()
		if d.err != nil || len(d.buf) != 0 {
			t.Fatalf("merging a raw overlay gave a malformed base: %v, %d trailing bytes", d.err, len(d.buf))
		}
	})
}

// TestMergeCheckpointRefuses: inputs the merge must reject.
func TestMergeCheckpointRefuses(t *testing.T) {
	schema := testSchema(t)
	st := NewStore(schema)
	c := mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	base := st.Snapshot().Encode()
	mustCreate(t, st, "Cell", map[string]Value{"name": S("b")})
	ov, ok := st.Overlay(0)
	if !ok {
		t.Fatal("overlay since 0 not available")
	}
	good := ov.Encode()
	if _, err := MergeCheckpoint(base, good); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct{ base, overlay []byte }{
		"legacy-json-base":  {[]byte(legacySnapshotJSON), good},
		"base-as-overlay":   {base, base},
		"truncated-overlay": {base, good[:len(good)-1]},
		"trailing-bytes":    {base, append(slices.Clone(good), 0)},
		// The overlay's object c listed as a tombstone as well.
		"live-and-dead": {base, append(append(slices.Clone(good[:len(good)-1]), 1), byte(c)<<1)},
	} {
		if _, err := MergeCheckpoint(tc.base, tc.overlay); err == nil {
			t.Errorf("%s: merge accepted", name)
		}
	}
	if got, err := MergeCheckpoint(base, nil); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("merge without an overlay changed the base: %v", err)
	}
}

// TestOverlayNeedsRetainedRecords: an overlay since a cut the ring no
// longer holds, or past the feed, is refused.
func TestOverlayNeedsRetainedRecords(t *testing.T) {
	st := NewStore(testSchema(t))
	mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	if _, ok := st.Overlay(st.FeedLSN() + 1); ok {
		t.Fatal("overlay since a cut past the feed")
	}
	if err := st.ResetFromSnapshot(st.Snapshot().Encode(), 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Overlay(2); ok {
		t.Fatal("overlay since a cut before the ring's first record")
	}
	if _, ok := st.Overlay(5); !ok {
		t.Fatal("no overlay at the feed position")
	}
}
