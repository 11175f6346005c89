package oms

import (
	"slices"
	"sort"

	"repro/internal/obs"
)

// Consistent-cut snapshots.
//
// A Snapshot is a point-in-time copy of the whole store taken under every
// stripe's read lock at once — the one moment all 32 stripes plus the OID
// allocator agree. Only object *headers* are copied inside that window:
// the class name, the attribute map and the flattened outgoing links.
// Blob bytes are shared with the live store, O(1) per blob, which is what
// keeps the cut brief on a blob-heavy database. Sharing is safe because
// blobs are immutable once stored: Set replaces the whole Value with a
// private clone (copy-on-write) and Get hands out clones, so the bytes a
// snapshot references can never change underneath it.
//
// Sorting, encoding and writing the snapshot happen entirely outside the
// locks, so concurrent designers stall only for the header copy — never
// for the binary encode (snapcodec.go) or the disk write.

// snapObjHdr is one captured object header. attrs shares Value contents
// (including blob backing arrays) with the live store; links is a
// flattened copy of the outgoing link sets, each sorted by target after
// the cut is released.
type snapObjHdr struct {
	oid   OID
	class string
	attrs map[string]Value
	links map[string][]OID
}

// Snapshot is an immutable consistent cut of a Store. It is safe to
// encode from any goroutine while the originating store keeps mutating.
type Snapshot struct {
	nextOID OID
	lsn     uint64       // change-feed position of the cut (see LSN)
	objs    []snapObjHdr // sorted by OID
}

// Snapshot captures a consistent cut of the store. Every stripe is
// read-locked simultaneously (so no cross-stripe mutation can tear the
// cut) and nextOID is read *inside* that window: an object inserted
// before the cut was necessarily allocated before it, so every captured
// OID is < NextOID — DecodeSnapshot never needs to patch the allocator
// up.
//
// allocMu is taken while the stripe locks are held; Create releases
// allocMu before touching any stripe, so the stripes→allocMu order is
// acyclic.
func (st *Store) Snapshot() *Snapshot {
	// Time the capture hold — how long every stripe stays read-locked —
	// not the sort below, which runs after the cut is released.
	hold := obs.Now()
	st.rlockAll()
	st.allocMu.Lock()
	sn := &Snapshot{nextOID: st.nextOID}
	st.allocMu.Unlock()
	// The feed position is read inside the cut too: every mutation
	// publishes while holding its stripe write locks, which the cut
	// excludes, so exactly the changes with LSN <= sn.lsn are visible in
	// the captured state — the anchor differential saves replay from.
	sn.lsn = st.feed.lsn()
	for i := range st.stripes {
		for _, obj := range st.stripes[i].objects {
			sn.objs = append(sn.objs, captureHdr(obj))
		}
	}
	st.runlockAll()
	st.metrics.snapshotHold.Since(hold)
	sortHdrs(sn.objs)
	return sn
}

// captureHdr copies one object's header; the caller holds its stripe's
// read lock.
func captureHdr(obj *object) snapObjHdr {
	h := snapObjHdr{
		oid:   obj.oid,
		class: obj.class,
		attrs: make(map[string]Value, len(obj.attrs)),
	}
	for name, v := range obj.attrs {
		h.attrs[name] = v // blob bytes shared; immutable once stored
	}
	if len(obj.links) > 0 {
		h.links = make(map[string][]OID, len(obj.links))
		for rel, targets := range obj.links {
			ts := make([]OID, 0, len(targets))
			for to := range targets {
				ts = append(ts, to)
			}
			h.links[rel] = ts
		}
	}
	return h
}

// sortHdrs puts captured headers in OID order and sorts each link
// target list. It runs after the cut is released — deterministic order
// is not the writers' problem.
func sortHdrs(hs []snapObjHdr) {
	sort.Slice(hs, func(i, j int) bool { return hs[i].oid < hs[j].oid })
	for i := range hs {
		for _, ts := range hs[i].links {
			slices.Sort(ts)
		}
	}
}

// NextOID returns the allocator position captured by the cut.
func (sn *Snapshot) NextOID() OID { return sn.nextOID }

// LSN returns the change-feed position of the cut: every change with
// LSN <= this value is reflected in the snapshot, none after. It is the
// `since` anchor for Store.Changes/Store.Watch when building
// differential persistence on top of a base snapshot.
func (sn *Snapshot) LSN() uint64 { return sn.lsn }

// Objects returns the number of objects in the cut.
func (sn *Snapshot) Objects() int { return len(sn.objs) }
