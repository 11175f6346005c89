package oms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/oms/backend"
)

// legacySnapshotJSON is a base snapshot in the JSON format base
// snapshots were written in before the binary one, which DecodeSnapshot
// refuses with backend.ErrOldFormat. It holds the store sampleStore
// builds.
const legacySnapshotJSON = `{"next_oid":3,"objects":[` +
	`{"oid":1,"class":"Cell","attrs":{"data":{"kind":3,"blob":"AQID"},"name":{"kind":0,"str":"x"},` +
	`"published":{"kind":2,"bool":true},"rev":{"kind":1,"int":1}}},` +
	`{"oid":2,"class":"Version","attrs":{"num":{"kind":1,"int":1}}}],` +
	`"links":[{"rel":"hasVersion","from":1,"to":2}]}`

// sampleStore builds the store legacySnapshotJSON holds.
func sampleStore(t testing.TB) *Store {
	t.Helper()
	st := NewStore(testSchema(t))
	c := mustCreate(t, st, "Cell", map[string]Value{
		"name": S("x"), "rev": I(1), "published": B(true), "data": Bytes([]byte{1, 2, 3}),
	})
	v := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	if err := linkOne(st, "hasVersion", c, v); err != nil {
		t.Fatal(err)
	}
	return st
}

// variantSchema is testSchema with Cell's attributes replaced by
// cellAttrs and, unless withRels, no relationships.
func variantSchema(t testing.TB, cellAttrs []AttrDef, withRels bool) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddClass("Cell", cellAttrs...); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("Version", AttrDef{Name: "num", Kind: KindInt, Required: true}); err != nil {
		t.Fatal(err)
	}
	if withRels {
		for _, r := range []RelDef{
			{Name: "hasVersion", From: "Cell", To: "Version", FromCard: One, ToCard: Many},
			{Name: "master", From: "Cell", To: "Version", FromCard: Many, ToCard: One},
		} {
			if err := s.AddRel(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

type schemaCase struct {
	name   string
	schema *Schema
	want   string // in the error
}

// assertSnapshotRefused decodes sampleStore's binary encoding against
// each case's schema: it must fail with the case's error, and decode
// against testSchema.
func assertSnapshotRefused(t *testing.T, cases []schemaCase) {
	t.Helper()
	data := sampleStore(t).Snapshot().Encode()
	if _, err := DecodeSnapshot(data, testSchema(t)); err != nil {
		t.Fatalf("snapshot refused by its own schema: %v", err)
	}
	for _, tc := range cases {
		if _, err := DecodeSnapshot(data, tc.schema); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodedStorePublishesNothing: decoding installs a snapshot's links
// without publishing them, so a decoded store sits at LSN 0 with an
// empty ring. ResetFromSnapshot installs a base at any LSN past 0, and
// the empty base at 0; a non-empty base at 0 is ErrOldFormat and leaves
// the store as it was.
func TestDecodedStorePublishesNothing(t *testing.T) {
	data := sampleStore(t).Snapshot().Encode()
	st, err := DecodeSnapshot(data, testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Related("hasVersion")) != 1 {
		t.Fatal("decoded store lost its link")
	}
	if recs, ok := st.Changes(0); st.FeedLSN() != 0 || len(recs) != 0 || !ok {
		t.Fatalf("decoded store at LSN %d with %d records (complete %t), want 0, 0, true",
			st.FeedLSN(), len(recs), ok)
	}
	for _, tc := range []struct {
		name string
		data []byte
		lsn  uint64
	}{{"base-past-0", data, 5}, {"empty-base-at-0", NewStore(testSchema(t)).Snapshot().Encode(), 0}} {
		st := NewStore(testSchema(t))
		if err := st.ResetFromSnapshot(tc.data, tc.lsn); err != nil || st.FeedLSN() != tc.lsn {
			t.Fatalf("%s: reset: %v, at LSN %d", tc.name, err, st.FeedLSN())
		}
	}
	follower := sampleStore(t)
	before := fingerprint(t, follower)
	lsn := follower.FeedLSN()
	if err := follower.ResetFromSnapshot(data, 0); !errors.Is(err, backend.ErrOldFormat) {
		t.Fatalf("non-empty base at LSN 0: %v, want ErrOldFormat", err)
	}
	if fingerprint(t, follower) != before || follower.FeedLSN() != lsn {
		t.Fatal("a refused reset changed the store")
	}
}

// TestSnapshotEncodeOneAllocation: the sizing pass is exact, so the
// result is the single buffer Encode allocated, with nothing spare.
func TestSnapshotEncodeOneAllocation(t *testing.T) {
	for _, st := range []*Store{NewStore(testSchema(t)), sampleStore(t)} {
		enc := st.Snapshot().Encode()
		if cap(enc) != len(enc) {
			t.Fatalf("Encode returned len %d, cap %d", len(enc), cap(enc))
		}
	}
}

// TestDecodeSnapshotCopiesBlobs: decoded blob bytes do not alias the
// payload, so a caller may reuse its buffer.
func TestDecodeSnapshotCopiesBlobs(t *testing.T) {
	data := sampleStore(t).Snapshot().Encode()
	st, err := DecodeSnapshot(data, testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	v, ok, err := st.Get(1, "data")
	if err != nil || !ok || !bytes.Equal(v.Blob, []byte{1, 2, 3}) {
		t.Fatalf("blob after the payload was overwritten: %v %t %v", v, ok, err)
	}
}

// rawSnap assembles a binary snapshot by hand after the magic and
// version: a string is written length-prefixed, an OID or int64 as a
// varint, an int as a uvarint and a byte as itself.
func rawSnap(fields ...any) []byte {
	b := []byte(snapMagic + "\x01")
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = appendString(b, v)
		case OID:
			b = binary.AppendVarint(b, int64(v))
		case int64:
			b = binary.AppendVarint(b, v)
		case int:
			b = binary.AppendUvarint(b, uint64(v))
		case byte:
			b = append(b, v)
		default:
			panic("rawSnap: unsupported field type")
		}
	}
	return b
}

// rawAttr is one attribute's fields with an empty blob.
func rawAttr(name string, kind Kind, str string, i int64, b byte) []any {
	return []any{name, int(kind), str, i, b, 0}
}

// rawObj is one object's fields; tail holds the relationship fields,
// starting with their count.
func rawObj(oid OID, class string, attrs [][]any, tail ...any) []any {
	out := []any{oid, class, len(attrs)}
	for _, a := range attrs {
		out = append(out, a...)
	}
	return append(out, tail...)
}

func cat(parts ...[]any) []any {
	var out []any
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestDecodeSnapshotRejectsMalformedBinary: every strict prefix of a
// snapshot, trailing bytes, and input Encode cannot produce are refused.
func TestDecodeSnapshotRejectsMalformedBinary(t *testing.T) {
	schema := testSchema(t)
	data := sampleStore(t).Snapshot().Encode()
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n], schema); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", n, len(data))
		}
	}
	if _, err := DecodeSnapshot(append(data[:len(data):len(data)], 0), schema); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}

	cell := func(oid OID, name string, tail ...any) []any {
		return rawObj(oid, "Cell", [][]any{rawAttr("name", KindString, name, 0, 0)}, tail...)
	}
	version := func(oid OID) []any {
		return rawObj(oid, "Version", [][]any{rawAttr("num", KindInt, "", 1, 0)}, 0)
	}
	valid := rawSnap(cat([]any{OID(4), 3}, cell(1, "a", 1, "hasVersion", 2, OID(2), OID(3)), version(2), version(3))...)
	st, err := DecodeSnapshot(valid, schema)
	if err != nil {
		t.Fatalf("hand-built snapshot: %v", err)
	}
	if got := st.Targets("hasVersion", 1); len(got) != 2 {
		t.Fatalf("hand-built snapshot links: %v", got)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"unsupported version", []byte(snapMagic + "\x02"), "version"},
		{"overflowing varint", append(rawSnap(), bytes.Repeat([]byte{0xFF}, 11)...), "varint"},
		{"object count past the end", rawSnap(OID(2), 1<<40), "exceeds"},
		{"class length past the end", rawSnap(OID(2), 1, OID(1), 1<<20), "exceeds"},
		{"blob length past the end", rawSnap(cat([]any{OID(2), 1, OID(1), "Cell", 1, "name", int(KindString), "a", int64(0), byte(0), 1 << 30})...), "exceeds"},
		{"objects out of order", rawSnap(cat([]any{OID(3), 2}, cell(2, "b", 0), cell(1, "a", 0))...), "out of order"},
		{"duplicate object", rawSnap(cat([]any{OID(3), 2}, cell(1, "a", 0), cell(1, "b", 0))...), "out of order"},
		{"attributes out of order", rawSnap(cat([]any{OID(2), 1}, rawObj(1, "Cell", [][]any{
			rawAttr("rev", KindInt, "", 1, 0), rawAttr("name", KindString, "a", 0, 0)}, 0))...), "out of order"},
		{"duplicate attribute", rawSnap(cat([]any{OID(2), 1}, rawObj(1, "Cell", [][]any{
			rawAttr("name", KindString, "a", 0, 0), rawAttr("name", KindString, "b", 0, 0)}, 0))...), "out of order"},
		{"bool byte 2", rawSnap(cat([]any{OID(2), 1}, rawObj(1, "Cell", [][]any{
			rawAttr("name", KindString, "a", 0, 0), rawAttr("published", KindBool, "", 0, 2)}, 0))...), "bool byte 2"},
		{"relationships out of order", rawSnap(cat([]any{OID(4), 3},
			cell(1, "a", 2, "master", 1, OID(2), "hasVersion", 1, OID(3)), version(2), version(3))...), "out of order"},
		{"targets out of order", rawSnap(cat([]any{OID(4), 3}, cell(1, "a", 1, "hasVersion", 2, OID(3), OID(2)), version(2), version(3))...), "out of order"},
		{"link to a missing object", rawSnap(cat([]any{OID(2), 1}, cell(1, "a", 1, "hasVersion", 1, OID(9)))...), "no object 9"},
		{"cardinality", rawSnap(cat([]any{OID(4), 3}, cell(1, "a", 1, "master", 2, OID(2), OID(3)), version(2), version(3))...), "single"},
	} {
		if _, err := DecodeSnapshot(tc.data, schema); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeSnapshot: arbitrary input never panics, and whatever
// decodes re-encodes to bytes that decode to the same store.
func FuzzDecodeSnapshot(f *testing.F) {
	schema := testSchema(f)
	withRef := NewStore(schema)
	mustCreate(f, withRef, "Cell", map[string]Value{"name": S("ref"), "data": Value{Kind: KindBlobRef, Str: strings.Repeat("ab", 32), Int: 7}})
	for _, st := range []*Store{NewStore(schema), sampleStore(f), withRef} {
		enc := st.Snapshot().Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte(legacySnapshotJSON))
	f.Add([]byte(snapMagic + "\x01\x02\x01\x02\x04Cell\x00\x00")) // a Cell without its required name
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(data, schema)
		if !bytes.HasPrefix(data, []byte(snapMagic)) && !errors.Is(err, backend.ErrOldFormat) {
			t.Fatalf("input without the snapshot magic: %v, want ErrOldFormat", err)
		}
		if err != nil {
			return
		}
		if st.FeedLSN() != 0 {
			t.Fatalf("decoded store published up to LSN %d", st.FeedLSN())
		}
		enc := st.Snapshot().Encode()
		again, err := DecodeSnapshot(enc, schema)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(again.Snapshot().Encode(), enc) {
			t.Fatal("re-encoded snapshot decodes to a different store")
		}
	})
}
