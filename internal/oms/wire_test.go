package oms

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/oms/backend"
)

// Wire robustness: DecodeChanges is the entry point for bytes that
// crossed a disk (delta payloads) or a network (replication frames).
// Truncated, corrupt or short input must produce an error — never a
// panic, and never a change sequence that half-applies a commit group.

// wirePayload builds a valid two-group payload: a create+set+link batch
// group and a single-op group.
func wirePayload(t testing.TB) []byte {
	t.Helper()
	schema := feedSchema(t)
	st := NewStore(schema)
	cell, err := createOne(st, "Cell", map[string]Value{"name": S("alu"), "data": Bytes([]byte{1, 2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	v := b.CreateOwned("Version", map[string]Value{"num": I(1)})
	b.Link("hasVersion", cell, v)
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := setOne(st, cell, "rev", I(9)); err != nil {
		t.Fatal(err)
	}
	recs, ok := st.Changes(0)
	if !ok || len(recs) == 0 {
		t.Fatal("no changes collected")
	}
	return EncodeChanges(recs)
}

func TestDecodeChangesRobustness(t *testing.T) {
	valid := wirePayload(t)
	schema := feedSchema(t)

	// Binary: every strict prefix, a trailing byte, and input
	// EncodeChanges cannot produce.
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeChanges(valid[:n]); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes accepted", n, len(valid))
		}
	}
	if _, err := DecodeChanges(append(valid[:len(valid):len(valid)], 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}
	set := func(attr string, kind Kind, str string, i int64, b byte) []any {
		return []any{1, 1, 1, int(ChangeSet), OID(1), "Cell", attr, int(kind), str, i, b, 0}
	}
	create := func(attrs ...[]any) []any {
		out := []any{1, 1, 1, int(ChangeCreate), OID(1), "Cell", len(attrs)}
		for _, a := range attrs {
			out = append(out, a...)
		}
		return out
	}
	if recs, err := DecodeChanges(rawChanges(set("published", KindBool, "", 0, 1)...)); err != nil || len(recs) != 1 || !recs[0].Value.Equal(B(true)) {
		t.Fatalf("hand-built set record: %v, %v", recs, err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"unsupported version", []byte(changesMagic + "\x02\x00"), "version"},
		{"magic only", []byte(changesMagic), "version"},
		{"overflowing varint", append(rawChanges(1), bytes.Repeat([]byte{0xFF}, 11)...), "varint"},
		{"count past the input", rawChanges(1 << 40), "exceed"},
		{"count past the records", rawChanges(cat([]any{3}, set("rev", KindInt, "", -1, 0)[1:])...), "truncated"},
		{"unknown kind", rawChanges(1, 1, 1, 99, OID(5), "Cell"), "unknown kind 99"},
		{"bool byte 2", rawChanges(set("published", KindBool, "", 0, 2)...), "bool byte 2"},
		{"value length past the end", rawChanges(1, 1, 1, int(ChangeSet), OID(1), "Cell", "name", int(KindString), 1<<20), "exceeds"},
		{"attribute count past the end", rawChanges(1, 1, 1, int(ChangeCreate), OID(1), "Cell", 1<<20), "exceed"},
		{"attributes out of order", rawChanges(create(rawAttr("rev", KindInt, "", 1, 0), rawAttr("name", KindString, "a", 0, 0))...), "out of order"},
		{"duplicate attribute", rawChanges(create(rawAttr("name", KindString, "a", 0, 0), rawAttr("name", KindString, "b", 0, 0))...), "out of order"},
	} {
		if _, err := DecodeChanges(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// Input without the magic — empty, garbage, and the JSON change
	// records older state dirs hold — is ErrOldFormat; two more
	// truncations of the binary form are refused too.
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"garbage", []byte("\x00\xFF\x17garbage")},
		{"not-json", []byte("hello world")},
		{"wrong-shape-object", []byte(`{"lsn":1}`)},
		{"wrong-shape-scalar", []byte(`42`)},
		{"truncated-half", valid[:len(valid)/2]},
		{"truncated-tail", valid[:len(valid)-3]},
		{"corrupt-kind-type", []byte(`[{"lsn":1,"group":1,"kind":"create"}]`)},
		{"corrupt-oid-type", []byte(`[{"lsn":1,"group":1,"kind":0,"oid":"x"}]`)},
		// A set without a value would decode to the zero Value, an empty
		// string, and blank the attribute on replay.
		{"set-without-value", []byte(`[{"lsn":1,"group":1,"kind":1,"oid":1,"class":"Cell","attr":"name"}]`)},
		{"set-null-value", []byte(`[{"lsn":1,"group":1,"kind":1,"oid":1,"class":"Cell","attr":"name","value":null}]`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeChanges(tc.payload)
			if err == nil {
				t.Fatalf("DecodeChanges accepted %s input", tc.name)
			}
			if old := !bytes.HasPrefix(tc.payload, []byte(changesMagic)); old != errors.Is(err, backend.ErrOldFormat) {
				t.Fatalf("%s input: %v, want ErrOldFormat: %t", tc.name, err, old)
			}
		})
	}

	// A set of the empty string still carries a value and round-trips.
	st := NewStore(schema)
	cell, err := createOne(st, "Cell", map[string]Value{"name": S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	if err := setOne(st, cell, "name", S("")); err != nil {
		t.Fatal(err)
	}
	recs, _ := st.Changes(0)
	payload := EncodeChanges(recs)
	back, err := DecodeChanges(payload)
	if err != nil {
		t.Fatalf("empty-string set rejected: %v", err)
	}
	if got := back[len(back)-1]; got.Kind != ChangeSet || !got.Value.Equal(S("")) {
		t.Fatalf("empty-string set decoded as %+v", got)
	}

	// Structurally valid records with semantic nonsense decode, but
	// ApplyReplicated must neither panic nor accept them. Each record
	// sits at LSN 1, where a fresh store attaches, so the gap check
	// passes and the schema check is what refuses it.
	semantic := [][]byte{
		EncodeChanges([]Change{{LSN: 1, Group: 1, Kind: ChangeCreate, OID: 5, Class: "NoSuchClass"}}),
		EncodeChanges([]Change{{LSN: 1, Group: 1, Kind: ChangeSet, OID: 5, Class: "Cell", Attr: "rev", Value: I(1)}}),
		EncodeChanges([]Change{{LSN: 1, Group: 1, Kind: ChangeLink, Rel: "nope", From: 1, To: 2}}),
		EncodeChanges([]Change{{LSN: 1, Group: 1, Kind: ChangeDelete, OID: 77, Class: "Cell"}}),
		EncodeChanges([]Change{{LSN: 1, Group: 1, Kind: ChangeCreate, OID: 1, Class: "Cell", Attrs: map[string]Value{"bogus": S("")}}}),
		EncodeChanges([]Change{{LSN: 1, Group: 1, Kind: ChangeCreate, OID: 1, Class: "Cell", Attrs: map[string]Value{"name": I(3)}}}),
		[]byte(`[{"lsn":1,"group":1,"kind":99,"oid":5,"class":"Cell"}]`),                             // unknown kind
		[]byte(`[{"lsn":1,"group":1,"kind":0,"oid":5,"class":"NoSuchClass"}]`),                       // unknown class
		[]byte(`[{"lsn":1,"group":1,"kind":1,"oid":5,"attr":"rev"}]`),                                // set on absent object
		[]byte(`[{"lsn":1,"group":1,"kind":2,"rel":"nope","from":1,"to":2}]`),                        // unknown rel
		[]byte(`[{"lsn":1,"group":1,"kind":4,"oid":77,"class":"Cell"}]`),                             // delete absent
		[]byte(`[{"lsn":1,"group":1,"kind":0,"oid":1,"class":"Cell","attrs":{"bogus":{"kind":0}}}]`), // unknown attr
	}
	for _, payload := range semantic {
		recs, err := DecodeChanges(payload)
		if err != nil {
			continue // also acceptable
		}
		err = NewStore(schema).ApplyReplicated(recs)
		if err == nil {
			t.Fatalf("ApplyReplicated accepted %s", payload)
		}
		if errors.Is(err, ErrFeedGap) {
			t.Fatalf("ApplyReplicated refused %s on the gap check, not the schema: %v", payload, err)
		}
	}
}

// TestChangeCodecModel: seeded random scripts of creates, sets of every
// value kind, links, unlinks, cascade deletes and failing batches. The
// feed's records, whole and group by group, decode to exactly what was
// encoded; equal record sequences encode to equal bytes in one
// allocation; and the decoded records rebuild the store.
func TestChangeCodecModel(t *testing.T) {
	schema := testSchema(t)
	for seed := int64(1); seed <= 24; seed++ {
		st := runCodecScript(t, schema, rand.New(rand.NewSource(seed)), 300)
		recs, ok := st.Changes(0)
		if !ok {
			t.Fatalf("seed %d: feed evicted records", seed)
		}
		enc := EncodeChanges(recs)
		if cap(enc) != len(enc) {
			t.Fatalf("seed %d: EncodeChanges returned len %d, cap %d", seed, len(enc), cap(enc))
		}
		dec, err := DecodeChanges(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(dec, recs) {
			t.Fatalf("seed %d: decoded records differ from the feed's", seed)
		}
		if again := EncodeChanges(dec); !bytes.Equal(again, enc) {
			t.Fatalf("seed %d: equal records encoded to different bytes", seed)
		}
		for len(recs) > 0 {
			n := 1
			for n < len(recs) && recs[n].Group == recs[0].Group {
				n++
			}
			got, err := DecodeChanges(EncodeChanges(recs[:n]))
			if err != nil || !reflect.DeepEqual(got, recs[:n]) {
				t.Fatalf("seed %d: group %d does not round-trip: %v", seed, recs[0].Group, err)
			}
			recs = recs[n:]
		}
		rebuilt := NewStore(schema)
		if err := rebuilt.ApplyReplicated(dec); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fingerprint(t, rebuilt) != fingerprint(t, st) {
			t.Fatalf("seed %d: store rebuilt from decoded records differs", seed)
		}
	}
}

// runCodecScript applies ops random operations to a fresh store. Single
// ops and batches that fail (a cardinality violation, an unknown
// attribute) publish nothing, which the feed must reflect.
func runCodecScript(t *testing.T, schema *Schema, rng *rand.Rand, ops int) *Store {
	t.Helper()
	st := NewStore(schema)
	value := func(attr string) Value {
		switch attr {
		case "name":
			if rng.Intn(4) == 0 {
				return S("")
			}
			return S(strings.Repeat("n", 1+rng.Intn(20)))
		case "rev", "num":
			return I(rng.Int63n(1<<40) - 1<<39)
		case "published":
			return B(rng.Intn(2) == 0)
		}
		if rng.Intn(3) == 0 {
			digest := make([]byte, 32)
			rng.Read(digest)
			return Value{Kind: KindBlobRef, Str: hex.EncodeToString(digest), Int: rng.Int63n(1 << 20)}
		}
		blob := make([]byte, 1+rng.Intn(600))
		rng.Read(blob)
		return Bytes(blob)
	}
	cellAttrs := func() map[string]Value {
		m := map[string]Value{"name": value("name")}
		for _, a := range []string{"rev", "published", "data"} {
			if rng.Intn(2) == 0 {
				m[a] = value(a)
			}
		}
		return m
	}
	pick := func(class string) (OID, bool) {
		oids := st.All(class)
		if len(oids) == 0 {
			return InvalidOID, false
		}
		return oids[rng.Intn(len(oids))], true
	}
	rels := []string{"hasVersion", "master"}
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 2:
			_, _ = createOne(st, "Cell", cellAttrs())
		case op < 3:
			_, _ = createOne(st, "Version", map[string]Value{"num": value("num")})
		case op < 5:
			if c, ok := pick("Cell"); ok {
				attr := []string{"name", "rev", "published", "data"}[rng.Intn(4)]
				_ = setOne(st, c, attr, value(attr))
			}
		case op < 7:
			c, ok1 := pick("Cell")
			v, ok2 := pick("Version")
			if ok1 && ok2 {
				_ = linkOne(st, rels[rng.Intn(2)], c, v)
			}
		case op < 8:
			if c, ok := pick("Cell"); ok {
				rel := rels[rng.Intn(2)]
				if ts := st.Targets(rel, c); len(ts) > 0 {
					_ = unlinkOne(st, rel, c, ts[rng.Intn(len(ts))])
				}
			}
		case op < 9:
			class := []string{"Cell", "Version"}[rng.Intn(2)]
			if o, ok := pick(class); ok {
				_ = deleteOne(st, o)
			}
		default:
			b := NewBatch()
			c := b.Create("Cell", cellAttrs())
			v := b.Create("Version", map[string]Value{"num": value("num")})
			b.Link("hasVersion", c, v)
			if old, ok := pick("Cell"); ok {
				b.Set(old, "rev", value("rev"))
			}
			if rng.Intn(2) == 0 {
				b.Set(c, "bogus", I(1)) // fails the whole batch
			}
			_, _ = st.Apply(b)
		}
	}
	return st
}

// TestApplyReplicatedGapDetection: a suffix that does not attach to the
// store's watermark is rejected whole — ErrFeedGap, nothing applied.
func TestApplyReplicatedGapDetection(t *testing.T) {
	schema := feedSchema(t)
	primary := NewStore(schema)
	if _, err := createOne(primary, "Cell", map[string]Value{"name": S("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := createOne(primary, "Cell", map[string]Value{"name": S("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := createOne(primary, "Cell", map[string]Value{"name": S("c")}); err != nil {
		t.Fatal(err)
	}
	recs, ok := primary.Changes(0)
	if !ok {
		t.Fatal("changes incomplete")
	}

	follower := NewStore(schema)
	// Skipping the first record must be detected before anything applies.
	if err := follower.ApplyReplicated(recs[1:]); err == nil {
		t.Fatal("gap accepted")
	}
	if follower.Count("") != 0 || follower.FeedLSN() != 0 {
		t.Fatal("gapped suffix partially applied")
	}
	// A non-contiguous run inside the suffix is rejected too.
	holed := []Change{recs[0], recs[2]}
	if err := follower.ApplyReplicated(holed); err == nil {
		t.Fatal("holed suffix accepted")
	}
	if follower.Count("") != 0 {
		t.Fatal("holed suffix partially applied")
	}
	// The correct suffix applies and mirrors the primary's LSNs.
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if follower.FeedLSN() != primary.FeedLSN() {
		t.Fatalf("follower at %d, primary at %d", follower.FeedLSN(), primary.FeedLSN())
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatal("fingerprint mismatch")
	}
}

// TestResetFromSnapshot: the whole-store swap installs the snapshot
// state, rebases the feed, and rejects corrupt payloads untouched.
func TestResetFromSnapshot(t *testing.T) {
	schema := feedSchema(t)
	primary := NewStore(schema)
	cell, err := createOne(primary, "Cell", map[string]Value{"name": S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := setOne(primary, cell, "rev", I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := primary.Snapshot()
	data := snap.Encode()

	follower := NewStore(schema)
	if _, err := createOne(follower, "Cell", map[string]Value{"name": S("stale")}); err != nil {
		t.Fatal(err)
	}
	if err := follower.ResetFromSnapshot(data, snap.LSN()); err != nil {
		t.Fatal(err)
	}
	if follower.FeedLSN() != snap.LSN() {
		t.Fatalf("feed at %d, want %d", follower.FeedLSN(), snap.LSN())
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatal("fingerprint mismatch after reset")
	}
	// The pre-reset object is gone, and the follower can tail from here.
	if n := len(follower.FindByAttr("Cell", "name", S("stale"))); n != 0 {
		t.Fatal("stale object survived reset")
	}
	if err := setOne(primary, cell, "rev", I(99)); err != nil {
		t.Fatal(err)
	}
	tail, ok := primary.Changes(snap.LSN())
	if !ok {
		t.Fatal("tail incomplete")
	}
	if err := follower.ApplyReplicated(tail); err != nil {
		t.Fatal(err)
	}
	if got := follower.GetInt(cell, "rev"); got != 99 {
		t.Fatalf("tail not applied: rev=%d", got)
	}

	// Corrupt payloads leave the store untouched.
	before := fingerprint(t, follower)
	if err := follower.ResetFromSnapshot([]byte("{torn"), 7); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if fingerprint(t, follower) != before {
		t.Fatal("failed reset mutated the store")
	}
}

// rawChanges assembles a binary change payload by hand after the magic
// and version, with rawSnap's field encoding.
func rawChanges(fields ...any) []byte {
	return append([]byte(changesMagic+"\x01"), rawSnap(fields...)[len(snapMagic)+1:]...)
}

// FuzzDecodeChanges: decode arbitrary bytes; whatever decodes must apply
// (or be rejected) without panicking on a fresh store: as decoded, and
// renumbered from LSN 1, so every input also reaches the per-record
// apply instead of stopping at the gap check. Binary input that decodes
// must re-encode to a payload that decodes to the same records; input
// without the magic, the JSON seeds included, is ErrOldFormat.
func FuzzDecodeChanges(f *testing.F) {
	valid := wirePayload(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(EncodeChanges(nil))
	f.Add(EncodeChanges([]Change{
		{LSN: 1, Group: 1, Kind: ChangeCreate, OID: 1, Class: "Cell", Attrs: map[string]Value{
			"name": S(""), "rev": I(-3), "data": {Kind: KindBlobRef, Str: strings.Repeat("ab", 32), Int: 7}}},
		{LSN: 2, Group: 1, Kind: ChangeSet, OID: 1, Class: "Cell", Attr: "data", Value: Bytes([]byte{0, 1, 2})},
		{LSN: 3, Group: 3, Kind: ChangeDelete, OID: 1, Class: "Cell"},
	}))
	f.Add(rawChanges(1, 1, 1, 99, OID(5), "Cell"))
	f.Add(rawChanges(1, 1, 1, int(ChangeSet), OID(1), "Cell", "published", int(KindBool), "", int64(0), byte(2), 0))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"lsn":1,"group":1,"kind":0,"oid":1,"class":"Cell"}]`))
	f.Add([]byte(`[{"lsn":1,"group":1,"kind":99}]`))
	f.Add([]byte(`{"lsn":1}`))
	f.Add([]byte("\xFF\x00 not json"))
	f.Add([]byte(`[{"lsn":1,"group":1,"kind":1,"oid":1,"class":"Cell","attr":"name"}]`))
	schema := feedSchema(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeChanges(data)
		if !bytes.HasPrefix(data, []byte(changesMagic)) && !errors.Is(err, backend.ErrOldFormat) {
			t.Fatalf("input without the change magic: %v, want ErrOldFormat", err)
		}
		if err != nil {
			return
		}
		again, err := DecodeChanges(EncodeChanges(recs))
		if err != nil {
			t.Fatalf("re-encoded records do not decode: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-encoded records decode differently:\n got %+v\nwant %+v", again, recs)
		}
		_ = NewStore(schema).ApplyReplicated(recs)
		for i := range recs {
			recs[i].LSN = uint64(i) + 1
		}
		_ = NewStore(schema).ApplyReplicated(recs)
	})
}
