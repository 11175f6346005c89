package oms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/oms/backend"
)

// Binary snapshot format.
//
// A base snapshot is mostly design bytes, so its encoding copies blob
// contents verbatim (no base64) and needs no reflection. Every length is
// a uvarint and every OID or int a zigzag varint:
//
//	magic "\x00OMS", version byte 1
//	nextOID                    varint
//	objects                    uvarint count, then per object in
//	                           strictly ascending OID order:
//	  oid                      varint
//	  class                    string
//	  attributes               uvarint count, then per attribute in
//	                           strictly ascending name order:
//	    name                   string
//	    kind                   uvarint
//	    str                    string
//	    int                    varint
//	    bool                   one byte, 0 or 1
//	    blob                   bytes
//	  relationships            uvarint count, then per relationship in
//	                           strictly ascending name order:
//	    name                   string
//	    targets                uvarint count, then strictly ascending
//	                           varint OIDs
//
// A string or bytes field is a uvarint length and that many raw bytes.
// The encoding is deterministic, so equal stores encode to equal bytes.
// It is the only snapshot format DecodeSnapshot reads: input without
// the magic, such as the JSON bases older state dirs hold, is
// backend.ErrOldFormat.

const (
	snapMagic   = "\x00OMS"
	snapVersion = 1
)

// Encode renders the snapshot in the binary snapshot format that
// DecodeSnapshot accepts. A sizing pass computes the exact output
// length first, so the result is one allocation with cap == len.
func (sn *Snapshot) Encode() []byte {
	size := len(snapMagic) + 1 + varintLen(int64(sn.nextOID)) + objsLen(sn.objs)
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.AppendVarint(buf, int64(sn.nextOID))
	buf = appendObjs(buf, sn.objs)
	if len(buf) != size {
		panic(fmt.Sprintf("oms: snapshot encode wrote %d bytes, sized %d", len(buf), size))
	}
	return buf
}

// objsLen is the exact number of bytes appendObjs writes for hs.
func objsLen(hs []snapObjHdr) int {
	n := uvarintLen(uint64(len(hs)))
	for i := range hs {
		n += hs[i].encodedLen()
	}
	return n
}

// appendObjs appends the object section of the format: the count, then
// each header, which must be in ascending OID order with sorted link
// targets (sortHdrs).
func appendObjs(buf []byte, hs []snapObjHdr) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(hs)))
	var names []string // reused across objects for the sorted key order
	for i := range hs {
		h := &hs[i]
		buf = binary.AppendVarint(buf, int64(h.oid))
		buf = appendString(buf, h.class)
		names = sortedKeys(names, h.attrs)
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, name := range names {
			buf = appendString(buf, name)
			buf = appendValue(buf, h.attrs[name])
		}
		names = sortedKeys(names, h.links)
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, rel := range names {
			targets := h.links[rel] // sorted by sortHdrs
			buf = appendString(buf, rel)
			buf = binary.AppendUvarint(buf, uint64(len(targets)))
			for _, to := range targets {
				buf = binary.AppendVarint(buf, int64(to))
			}
		}
	}
	return buf
}

// encodedLen is the exact number of bytes Encode writes for h. Field
// order does not change a length, so no sorting is needed here.
func (h *snapObjHdr) encodedLen() int {
	n := varintLen(int64(h.oid)) + stringLen(h.class) + uvarintLen(uint64(len(h.attrs)))
	for name, v := range h.attrs {
		n += stringLen(name) + valueLen(v)
	}
	n += uvarintLen(uint64(len(h.links)))
	for rel, targets := range h.links {
		n += stringLen(rel) + uvarintLen(uint64(len(targets)))
		for _, to := range targets {
			n += varintLen(int64(to))
		}
	}
	return n
}

// sortedKeys refills dst with m's keys in ascending order.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// appendValue appends one attribute value: kind, str, int, bool byte
// and raw blob bytes. Snapshots and change records share the layout.
func appendValue(buf []byte, v Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(v.Kind))
	buf = appendString(buf, v.Str)
	buf = binary.AppendVarint(buf, v.Int)
	buf = append(buf, boolByte(v.Bool))
	buf = binary.AppendUvarint(buf, uint64(len(v.Blob)))
	return append(buf, v.Blob...)
}

// valueLen is the exact number of bytes appendValue writes for v.
func valueLen(v Value) int {
	return uvarintLen(uint64(v.Kind)) + stringLen(v.Str) + varintLen(v.Int) + 1 +
		uvarintLen(uint64(len(v.Blob))) + len(v.Blob)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintLen matches binary.AppendVarint's zigzag encoding.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// snapDecoder reads the binary snapshot, overlay and change-record
// formats. The first error sticks: later reads return zero values, so
// the decode loop checks d.err once per field group instead of after
// every read.
type snapDecoder struct {
	buf   []byte
	err   error
	links []snapLink // applied once every object exists
	// what prefixes errors; empty means "decode snapshot".
	what string
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		what := d.what
		if what == "" {
			what = "decode snapshot"
		}
		d.err = fmt.Errorf(what+": "+format, args...)
	}
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or overflowing varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *snapDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated or overflowing varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a count or length. Every counted item takes at least one
// byte, so a value beyond the remaining input is corrupt — refused
// before anything is sized by it.
func (d *snapDecoder) count() int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

// countOf reads a count of items that each take at least min bytes,
// refusing one the remaining input cannot hold.
func (d *snapDecoder) countOf(min int) int {
	n := d.count()
	if d.err == nil && n > len(d.buf)/min {
		d.fail("%d items of at least %d bytes exceed the %d bytes left", n, min, len(d.buf))
		return 0
	}
	return n
}

// bytes returns the next length-prefixed field. It aliases the input;
// the caller copies whatever it keeps.
func (d *snapDecoder) bytes() []byte {
	n := d.count()
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *snapDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.fail("truncated bool")
		return false
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	if b > 1 {
		d.fail("bool byte %d", b)
	}
	return b == 1
}

// value reads one attribute value (appendValue's layout). Blob bytes
// are copied out of the input; an empty blob decodes as nil.
func (d *snapDecoder) value() Value {
	kind := Kind(d.uvarint())
	str := d.bytes()
	iv := d.varint()
	bv := d.bool()
	blob := d.bytes()
	if d.err != nil {
		return Value{}
	}
	v := Value{Kind: kind, Str: string(str), Int: iv, Bool: bv}
	if len(blob) > 0 {
		v.Blob = bytes.Clone(blob)
	}
	return v
}

// snapLink is one decoded link.
type snapLink struct {
	rel      string
	from, to OID
}

// DecodeSnapshot rebuilds a store from an encoded snapshot payload (the
// bytes Snapshot.Encode produced), regardless of which storage backend
// held them. The payload is validated against the schema: unknown
// classes, attributes or relationships, a kind mismatch and a missing
// required attribute fail the decode. So does any input Encode could
// not have produced: truncation, trailing bytes, a length past the end,
// out-of-order objects, attributes, relationships or targets, and a
// bool byte other than 0 or 1. Input without the snapshot magic fails
// with backend.ErrOldFormat.
func DecodeSnapshot(data []byte, schema *Schema) (*Store, error) {
	if !bytes.HasPrefix(data, []byte(snapMagic)) {
		return nil, fmt.Errorf("decode snapshot: %w", backend.ErrOldFormat)
	}
	if len(data) == len(snapMagic) || data[len(snapMagic)] != snapVersion {
		return nil, fmt.Errorf("decode snapshot: unsupported binary snapshot version")
	}
	d := &snapDecoder{buf: data[len(snapMagic)+1:]}
	st := NewStore(schema)
	st.nextOID = OID(d.varint())
	nobj := d.count()
	var prev OID
	for i := 0; i < nobj && d.err == nil; i++ {
		oid := OID(d.varint())
		if i > 0 && oid <= prev {
			d.fail("object %d follows %d: OIDs out of order", oid, prev)
		}
		prev = oid
		obj := d.object(oid, schema)
		if d.err != nil {
			break
		}
		s := st.stripeOf(oid)
		s.objects[oid] = obj
		s.addClass(obj.class, oid)
		if oid >= st.nextOID {
			st.nextOID = oid + 1
		}
	}
	if d.err == nil && len(d.buf) != 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return nil, d.err
	}
	// Links go in with Link's class, cardinality and relationship checks
	// but publish nothing: a decoded store's feed stays at 0 with an
	// empty ring, and its installer (ResetFromSnapshot) sets the LSN the
	// content was cut at. The store is still private, so no stripe lock
	// is taken.
	for _, l := range d.links {
		if _, err := st.linkLockedU(l.rel, l.from, l.to); err != nil {
			return nil, fmt.Errorf("decode snapshot: %w", err)
		}
	}
	return st, nil
}

// object reads one object's class, attributes and outgoing links (the
// links are appended to d.links). Names are interned from the schema, so
// decoding allocates no string per class, attribute or relationship.
func (d *snapDecoder) object(oid OID, schema *Schema) *object {
	className := d.bytes()
	if d.err != nil {
		return nil
	}
	cls := schema.class(string(className))
	if cls == nil {
		d.fail("unknown class %q", className)
		return nil
	}
	obj := newObject(oid, cls.Name)
	var prevName []byte
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		name := d.bytes()
		if i > 0 && bytes.Compare(name, prevName) <= 0 {
			d.fail("object %d: attribute %q follows %q: out of order", oid, name, prevName)
		}
		prevName = name
		v := d.value()
		if d.err != nil {
			return nil
		}
		def, ok := classAttr(cls, name)
		if !ok {
			d.fail("class %q has no attribute %q", cls.Name, name)
			return nil
		}
		if !kindCompatible(def.Kind, v.Kind) {
			d.fail("attribute %s.%s wants %s, got %s", cls.Name, def.Name, def.Kind, v.Kind)
			return nil
		}
		obj.attrs[def.Name] = v
	}
	for _, def := range cls.Attrs {
		if _, ok := obj.attrs[def.Name]; def.Required && !ok {
			d.fail("class %q requires attribute %q", cls.Name, def.Name)
		}
	}
	prevName = nil
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		name := d.bytes()
		if i > 0 && bytes.Compare(name, prevName) <= 0 {
			d.fail("object %d: relationship %q follows %q: out of order", oid, name, prevName)
		}
		prevName = name
		if d.err != nil {
			return nil
		}
		rel := schema.rel(string(name))
		if rel == nil {
			d.fail("unknown relationship %q", name)
			return nil
		}
		var prevTo OID
		for j, nt := 0, d.count(); j < nt && d.err == nil; j++ {
			to := OID(d.varint())
			if j > 0 && to <= prevTo {
				d.fail("object %d: %s target %d follows %d: out of order", oid, rel.Name, to, prevTo)
			}
			prevTo = to
			d.links = append(d.links, snapLink{rel: rel.Name, from: oid, to: to})
		}
	}
	return obj
}

// classAttr is Class.attr for a name still in the input buffer; the
// comparison converts without allocating.
func classAttr(c *Class, name []byte) (AttrDef, bool) {
	for _, a := range c.Attrs {
		if a.Name == string(name) {
			return a, true
		}
	}
	return AttrDef{}, false
}
