package oms

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/oms/backend"
)

// Binary change-record format.
//
// The payload of a differential save's delta@<epoch> and of a
// replication stream's change frame. It reuses the snapshot format's
// conventions (snapcodec.go): every length is a uvarint, every OID or
// int a zigzag varint, and blob bytes are copied raw:
//
//	magic "\x00CHG", version byte 1
//	records                    uvarint count, then per record:
//	  lsn                      uvarint
//	  group                    uvarint
//	  kind                     uvarint (ChangeKind)
//	  body, by kind:
//	    create                 oid, class, then a uvarint count of
//	                           attributes in strictly ascending name
//	                           order, each a name and a value
//	    set                    oid, class, attr, value
//	    link, unlink           rel, from, to
//	    delete                 oid, class
//
// A value is laid out as a snapshot attribute's: kind uvarint, str
// string, int varint, bool byte (0 or 1), blob bytes. The encoding is
// deterministic, so equal record sequences encode to equal bytes. It is
// the only change-record format DecodeChanges reads: input without the
// magic, such as the JSON deltas older state dirs hold, is
// backend.ErrOldFormat.

const (
	changesMagic   = "\x00CHG"
	changesVersion = 1

	// minRecordLen is the fewest bytes a record can take: three
	// one-byte uvarints and a two-field delete body. A record count the
	// rest of the input cannot hold is refused before anything is sized
	// by it.
	minRecordLen = 5
	// minAttrLen is the fewest bytes an attribute of a create takes:
	// a one-byte name length and the five one-byte fields of a value.
	minAttrLen = 6
)

// EncodeChanges renders a change sequence as a delta or change-frame
// payload. The records must be in LSN order (as Changes returns them).
// A sizing pass computes the exact output length first, so the result
// is one allocation with cap == len.
func EncodeChanges(recs []Change) []byte {
	size := len(changesMagic) + 1 + uvarintLen(uint64(len(recs)))
	for i := range recs {
		size += changeLen(&recs[i])
	}
	buf := make([]byte, 0, size)
	buf = append(buf, changesMagic...)
	buf = append(buf, changesVersion)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	var names []string // reused across creates for the sorted key order
	for i := range recs {
		c := &recs[i]
		buf = binary.AppendUvarint(buf, c.LSN)
		buf = binary.AppendUvarint(buf, c.Group)
		buf = binary.AppendUvarint(buf, uint64(c.Kind))
		switch c.Kind {
		case ChangeCreate:
			buf = binary.AppendVarint(buf, int64(c.OID))
			buf = appendString(buf, c.Class)
			names = sortedKeys(names, c.Attrs)
			buf = binary.AppendUvarint(buf, uint64(len(names)))
			for _, name := range names {
				buf = appendString(buf, name)
				buf = appendValue(buf, c.Attrs[name])
			}
		case ChangeSet:
			buf = binary.AppendVarint(buf, int64(c.OID))
			buf = appendString(buf, c.Class)
			buf = appendString(buf, c.Attr)
			buf = appendValue(buf, c.Value)
		case ChangeLink, ChangeUnlink:
			buf = appendString(buf, c.Rel)
			buf = binary.AppendVarint(buf, int64(c.From))
			buf = binary.AppendVarint(buf, int64(c.To))
		case ChangeDelete:
			buf = binary.AppendVarint(buf, int64(c.OID))
			buf = appendString(buf, c.Class)
		default:
			panic(fmt.Sprintf("oms: encode changes: record %d has unknown kind %d", c.LSN, int(c.Kind)))
		}
	}
	if len(buf) != size {
		panic(fmt.Sprintf("oms: changes encode wrote %d bytes, sized %d", len(buf), size))
	}
	return buf
}

// changeLen is the exact number of bytes EncodeChanges writes for c.
func changeLen(c *Change) int {
	n := uvarintLen(c.LSN) + uvarintLen(c.Group) + uvarintLen(uint64(c.Kind))
	switch c.Kind {
	case ChangeCreate:
		n += varintLen(int64(c.OID)) + stringLen(c.Class) + uvarintLen(uint64(len(c.Attrs)))
		for name, v := range c.Attrs {
			n += stringLen(name) + valueLen(v)
		}
	case ChangeSet:
		n += varintLen(int64(c.OID)) + stringLen(c.Class) + stringLen(c.Attr) + valueLen(c.Value)
	case ChangeLink, ChangeUnlink:
		n += stringLen(c.Rel) + varintLen(int64(c.From)) + varintLen(int64(c.To))
	case ChangeDelete:
		n += varintLen(int64(c.OID)) + stringLen(c.Class)
	default:
		// EncodeChanges refuses the record after sizing.
	}
	return n
}

// CheckChangesFormat is DecodeChanges' first check: data must start with
// the change-record magic, else it fails with backend.ErrOldFormat, and
// the current version byte.
func CheckChangesFormat(data []byte) error {
	if !bytes.HasPrefix(data, []byte(changesMagic)) {
		return fmt.Errorf("oms: decode changes: %w", backend.ErrOldFormat)
	}
	if len(data) == len(changesMagic) || data[len(changesMagic)] != changesVersion {
		return fmt.Errorf("oms: decode changes: unsupported binary change format version")
	}
	return nil
}

// DecodeChanges parses a delta or change-frame payload, as
// EncodeChanges writes it. It rejects any input EncodeChanges could not
// have produced: truncation, trailing bytes, a length or count past the
// end, an unknown record kind, a bool byte other than 0 or 1, and
// create attributes out of order or repeated; input without the magic
// fails with backend.ErrOldFormat. Blob bytes are copied out, so no
// record aliases the payload (a frame or segment buffer). Schema checks
// are ApplyReplicated's.
func DecodeChanges(data []byte) ([]Change, error) {
	if err := CheckChangesFormat(data); err != nil {
		return nil, err
	}
	d := &snapDecoder{buf: data[len(changesMagic)+1:], what: "oms: decode changes"}
	n := d.countOf(minRecordLen)
	out := make([]Change, n)
	for i := range out {
		c := &out[i]
		c.LSN = d.uvarint()
		c.Group = d.uvarint()
		kind := d.uvarint()
		switch c.Kind = ChangeKind(kind); c.Kind {
		case ChangeCreate:
			c.OID = OID(d.varint())
			c.Class = string(d.bytes())
			c.Attrs = d.attrs(c.LSN)
		case ChangeSet:
			c.OID = OID(d.varint())
			c.Class = string(d.bytes())
			c.Attr = string(d.bytes())
			c.Value = d.value()
		case ChangeLink, ChangeUnlink:
			c.Rel = string(d.bytes())
			c.From = OID(d.varint())
			c.To = OID(d.varint())
		case ChangeDelete:
			c.OID = OID(d.varint())
			c.Class = string(d.bytes())
		default:
			d.fail("record %d has unknown kind %d", c.LSN, kind)
		}
		if d.err != nil {
			break
		}
	}
	if d.err == nil && len(d.buf) != 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// attrs reads a create record's attribute map, refusing names out of
// ascending order (which also refuses a repeated name). No attributes
// decode as a nil map.
func (d *snapDecoder) attrs(lsn uint64) map[string]Value {
	n := d.countOf(minAttrLen)
	if d.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]Value, n)
	var prev []byte
	for i := 0; i < n && d.err == nil; i++ {
		name := d.bytes()
		if i > 0 && bytes.Compare(name, prev) <= 0 {
			d.fail("record %d: attribute %q follows %q: out of order", lsn, name, prev)
		}
		prev = name
		m[string(name)] = d.value()
	}
	return m
}
