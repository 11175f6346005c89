package oms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Overlay checkpoints.
//
// A full base snapshot re-encodes every object, but a store that only
// grows — each checkin adds a version and leaves older ones alone —
// changes few objects between two checkpoints. An Overlay is a
// consistent cut at LSN L that holds only what changed since an earlier
// base cut at LSN B: the header of every object a feed record in
// (B, L] touched and is still live, and a tombstone for every touched
// OID that no longer is. An object's encoded header is its class, its
// attributes and its outgoing links, and every change to those
// publishes a record naming the object — Create, Set and Delete by OID,
// Link and Unlink by From (a Delete publishes one Unlink per detached
// link, incoming ones included, so the other end is touched too).
// Folding the overlay over the base (MergeCheckpoint) therefore yields
// exactly the base encoding of the store at L.
//
// Binary overlay format, with fields encoded as in the base format
// (snapcodec.go):
//
//	magic "\x00OVL", version byte 1
//	nextOID                    varint
//	objects                    as in the base format: every live touched
//	                           object in strictly ascending OID order
//	tombstones                 uvarint count, then strictly ascending
//	                           varint OIDs, none of them an object above

const (
	overlayMagic   = "\x00OVL"
	overlayVersion = 1
)

// Overlay is an immutable cut of the objects touched since a base cut.
type Overlay struct {
	nextOID OID
	lsn     uint64
	objs    []snapObjHdr // live touched objects, sorted by OID
	dead    []OID        // touched OIDs no longer live, ascending
}

// Overlay captures, under the same all-stripe read hold as Snapshot
// (timed in oms_snapshot_hold_ns), the objects that feed records after
// base touched. ok is false when the ring no longer retains every
// record after base, or base lies beyond the feed: the caller then
// needs a full Snapshot.
func (st *Store) Overlay(base uint64) (ov *Overlay, ok bool) {
	hold := obs.Now()
	st.rlockAll()
	st.allocMu.Lock()
	ov = &Overlay{nextOID: st.nextOID}
	st.allocMu.Unlock()
	// Read inside the cut, as in Snapshot: exactly the records up to
	// ov.lsn are reflected in the captured headers.
	var touched map[OID]struct{}
	touched, ov.lsn, ok = st.feed.touched(base)
	for oid := range touched {
		if obj, live := st.stripeOf(oid).objects[oid]; live {
			ov.objs = append(ov.objs, captureHdr(obj))
		} else {
			ov.dead = append(ov.dead, oid)
		}
	}
	st.runlockAll()
	st.metrics.snapshotHold.Since(hold)
	if !ok {
		return nil, false
	}
	sortHdrs(ov.objs)
	slices.Sort(ov.dead)
	return ov, true
}

// touched returns the set of OIDs whose header a record in
// (since..last] changed, and last. ok is false when the ring has
// evicted part of that range or since is past the watermark.
func (f *feed) touched(since uint64) (oids map[OID]struct{}, last uint64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if since > f.last || (since < f.last && since+1 < f.start) {
		return nil, f.last, false
	}
	oids = map[OID]struct{}{}
	for lsn := since + 1; lsn <= f.last; lsn++ {
		c := &f.buf[(lsn-1)%uint64(len(f.buf))]
		if c.Kind == ChangeLink || c.Kind == ChangeUnlink {
			oids[c.From] = struct{}{}
		} else {
			oids[c.OID] = struct{}{}
		}
	}
	return oids, f.last, true
}

// LSN returns the change-feed position of the cut.
func (ov *Overlay) LSN() uint64 { return ov.lsn }

// Encode renders the overlay in the binary overlay format, one
// allocation with cap == len.
func (ov *Overlay) Encode() []byte {
	size := len(overlayMagic) + 1 + varintLen(int64(ov.nextOID)) + objsLen(ov.objs) +
		uvarintLen(uint64(len(ov.dead)))
	for _, oid := range ov.dead {
		size += varintLen(int64(oid))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, overlayMagic...)
	buf = append(buf, overlayVersion)
	buf = binary.AppendVarint(buf, int64(ov.nextOID))
	buf = appendObjs(buf, ov.objs)
	buf = binary.AppendUvarint(buf, uint64(len(ov.dead)))
	for _, oid := range ov.dead {
		buf = binary.AppendVarint(buf, int64(oid))
	}
	if len(buf) != size {
		panic(fmt.Sprintf("oms: overlay encode wrote %d bytes, sized %d", len(buf), size))
	}
	return buf
}

// MergeCheckpoint folds an encoded overlay into the binary base
// snapshot it was cut against and returns the base encoding of the
// store at the overlay's cut: base objects in OID order, each replaced
// by the overlay's header of the same OID or dropped by its tombstone,
// with the overlay's new objects merged in and the overlay's allocator
// position. Object encodings are copied verbatim, so the merge costs
// one structural pass and one allocation; a nil overlay returns base
// as is. The result is checked against the schema only when it is
// decoded (DecodeSnapshot, ResetFromSnapshot).
func MergeCheckpoint(base, overlay []byte) ([]byte, error) {
	if overlay == nil {
		return base, nil
	}
	if !bytes.HasPrefix(base, []byte(snapMagic)) || len(base) == len(snapMagic) || base[len(snapMagic)] != snapVersion {
		return nil, fmt.Errorf("merge checkpoint: base is not a binary version %d snapshot", snapVersion)
	}
	if !bytes.HasPrefix(overlay, []byte(overlayMagic)) || len(overlay) == len(overlayMagic) || overlay[len(overlayMagic)] != overlayVersion {
		return nil, fmt.Errorf("merge checkpoint: not a version %d overlay", overlayVersion)
	}
	bd := &snapDecoder{buf: base[len(snapMagic)+1:]}
	bd.varint() // the base's allocator position; the overlay's is later
	baseObjs := bd.spans()
	if bd.err == nil && len(bd.buf) != 0 {
		bd.fail("%d trailing bytes", len(bd.buf))
	}
	if bd.err != nil {
		return nil, fmt.Errorf("merge checkpoint: base: %w", bd.err)
	}
	od := &snapDecoder{buf: overlay[len(overlayMagic)+1:]}
	nextOID := od.varint()
	ovObjs := od.spans()
	dead := od.tombstones(ovObjs)
	if od.err == nil && len(od.buf) != 0 {
		od.fail("%d trailing bytes", len(od.buf))
	}
	if od.err != nil {
		return nil, fmt.Errorf("merge checkpoint: overlay: %w", od.err)
	}

	out := make([]objSpan, 0, len(baseObjs)+len(ovObjs))
	i, j, k := 0, 0, 0
	for i < len(baseObjs) || j < len(ovObjs) {
		if j < len(ovObjs) && (i == len(baseObjs) || ovObjs[j].oid <= baseObjs[i].oid) {
			if i < len(baseObjs) && baseObjs[i].oid == ovObjs[j].oid {
				i++
			}
			out = append(out, ovObjs[j])
			j++
			continue
		}
		oid := baseObjs[i].oid
		for k < len(dead) && dead[k] < oid {
			k++
		}
		if k == len(dead) || dead[k] != oid {
			out = append(out, baseObjs[i])
		}
		i++
	}
	size := len(snapMagic) + 1 + varintLen(nextOID) + uvarintLen(uint64(len(out)))
	for _, s := range out {
		size += len(s.enc)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.AppendVarint(buf, nextOID)
	buf = binary.AppendUvarint(buf, uint64(len(out)))
	for _, s := range out {
		buf = append(buf, s.enc...)
	}
	return buf, nil
}

// objSpan is one object's encoding within a base or overlay payload.
type objSpan struct {
	oid OID
	enc []byte // aliases the payload
}

// spans reads an object section without interpreting it: each object's
// OID (strictly ascending) and the bytes of its encoding.
func (d *snapDecoder) spans() []objSpan {
	n := d.count()
	out := make([]objSpan, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		start := d.buf
		oid := OID(d.varint())
		if i > 0 && oid <= out[i-1].oid {
			d.fail("object %d follows %d: OIDs out of order", oid, out[i-1].oid)
		}
		d.bytes() // class
		for a, na := 0, d.count(); a < na && d.err == nil; a++ {
			d.bytes() // name
			d.uvarint()
			d.bytes()
			d.varint()
			d.bool()
			d.bytes()
		}
		for r, nr := 0, d.count(); r < nr && d.err == nil; r++ {
			d.bytes() // name
			for t, nt := 0, d.count(); t < nt && d.err == nil; t++ {
				d.varint()
			}
		}
		out = append(out, objSpan{oid: oid, enc: start[:len(start)-len(d.buf)]})
	}
	return out
}

// tombstones reads the overlay's tombstone section: strictly ascending
// OIDs, none of them one of the overlay's objects.
func (d *snapDecoder) tombstones(objs []objSpan) []OID {
	n := d.count()
	out := make([]OID, 0, n)
	j := 0
	for i := 0; i < n && d.err == nil; i++ {
		oid := OID(d.varint())
		if i > 0 && oid <= out[i-1] {
			d.fail("tombstone %d follows %d: out of order", oid, out[i-1])
		}
		for j < len(objs) && objs[j].oid < oid {
			j++
		}
		if j < len(objs) && objs[j].oid == oid {
			d.fail("object %d is both live and a tombstone", oid)
		}
		out = append(out, oid)
	}
	return out
}
