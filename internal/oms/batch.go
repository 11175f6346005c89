package oms

import (
	"fmt"
	"os"

	"repro/internal/obs"
)

// Grouped operations.
//
// A Batch stages N mutations and Store.Apply executes them as one atomic
// group: the touched stripe set is computed up front, those stripe locks
// are acquired once in ascending order (the same order lockAll uses, so
// batches and the whole-store paths can never deadlock), every op runs
// under that one hold, and the first failing op rolls back everything
// the batch already applied. Apply is the store's only local write path:
// a single mutation is a one-op batch. Callers get two properties:
//
//   - all-or-nothing: a multi-step sequence (version create + link +
//     data blob + derivation link, the section 3.6 checkin shape) either
//     lands completely or leaves no trace — no orphaned objects, no
//     half-wired relationships;
//   - one lock round-trip: N ops pay one acquire/release of the touched
//     stripes instead of N, which is what makes the grouped checkin path
//     measurably faster under concurrent designers (BENCH_3.json).
//
// Objects created earlier in a batch are addressable by later ops through
// placeholder OIDs: Batch.Create returns a negative OID (-1 for the first
// staged create, -2 for the second, ...) which Apply resolves to the real
// allocation. Real OIDs are always positive, so the two can never collide.

// batchKind enumerates the stageable operations.
type batchKind int

const (
	bCreate batchKind = iota
	bSet
	bLink
	bUnlink
	bDelete
	bCopyIn
)

// batchOp is one staged operation, packed tight — the ops slice is the
// builder's dominant allocation, so mutually-exclusive fields share a
// slot. s1 holds the class (bCreate), attribute name (bSet, bCopyIn) or
// relationship name (bLink, bUnlink); s2 the copy-in source path; oid is
// the op's target and doubles as the link source; OIDs may be
// placeholders.
type batchOp struct {
	kind  batchKind
	s1    string
	s2    string           // bCopyIn
	attrs map[string]Value // bCreate (private copies)
	val   Value            // bSet (private copy)
	oid   OID              // bSet, bDelete, bCopyIn; from of bLink/bUnlink
	to    OID              // bLink, bUnlink
	spill bool             // design-data op (CopyIn/CopyInBytes): blob may spill to the CAS
}

// Batch stages a group of mutations for Store.Apply. The zero value is
// ready to use. A Batch is not safe for concurrent use and is one-shot:
// once handed to Apply it must be discarded (Apply takes ownership of the
// staged values so it can install them without re-copying).
type Batch struct {
	ops     []batchOp
	creates int
	applied bool
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Len reports the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse, retaining the ops slice's capacity —
// the concession to hot paths (the jcf checkin) that build one small
// batch per call and would otherwise pay the builder allocation every
// time; they pool Reset batches. Staged ops are zeroed so a pooled batch
// never pins attribute maps or design-data blobs from a previous use.
func (b *Batch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
	b.creates = 0
	b.applied = false
}

// add appends one staged op. batchOp is a wide struct, so the usual
// doubling-from-one append would copy every staged op twice for the
// typical 3-4 op batch; starting at a capacity that already fits the
// checkin shape (create + link + blob + derivation) keeps the builder to
// a single allocation on the hot path.
func (b *Batch) add(op batchOp) {
	if b.ops == nil {
		b.ops = make([]batchOp, 0, 4)
	}
	b.ops = append(b.ops, op)
}

// Create stages an object creation and returns a placeholder OID that
// later ops in the same batch may reference. Attribute values are copied
// at staging time, so the caller may reuse the map. All validation
// happens in Apply.
func (b *Batch) Create(class string, attrs map[string]Value) OID {
	cp := make(map[string]Value, len(attrs))
	for name, v := range attrs {
		cp[name] = v.clone()
	}
	b.add(batchOp{kind: bCreate, s1: class, attrs: cp})
	b.creates++
	return -OID(b.creates)
}

// CreateOwned is Create without the defensive copy: ownership of attrs
// (map and values) transfers to the batch, and Apply adopts the map as
// the new object's attribute storage outright. For hot paths that build
// the map fresh for this one call (the jcf checkin); the caller must not
// retain or mutate attrs afterwards.
func (b *Batch) CreateOwned(class string, attrs map[string]Value) OID {
	b.add(batchOp{kind: bCreate, s1: class, attrs: attrs})
	b.creates++
	return -OID(b.creates)
}

// Set stages an attribute assignment. The value is copied at staging time.
func (b *Batch) Set(oid OID, attr string, v Value) {
	b.add(batchOp{kind: bSet, oid: oid, s1: attr, val: v.clone()})
}

// Link stages a relationship creation. Apply checks the endpoint
// classes and cardinalities; linking a pair that is already linked is a
// no-op that publishes nothing.
func (b *Batch) Link(rel string, from, to OID) {
	b.add(batchOp{kind: bLink, s1: rel, oid: from, to: to})
}

// Unlink stages a relationship removal. Removing an absent link is a
// no-op that publishes nothing.
func (b *Batch) Unlink(rel string, from, to OID) {
	b.add(batchOp{kind: bUnlink, s1: rel, oid: from, to: to})
}

// Delete stages an object deletion: every link the object takes part in
// is detached, and the cascade publishes with the rest of the batch as
// one feed group. A batch containing a Delete locks every stripe
// (deletion's reach is unbounded).
func (b *Batch) Delete(oid OID) {
	b.add(batchOp{kind: bDelete, oid: oid})
}

// CopyIn stages a file-system copy-in: the file at srcPath becomes the
// named blob attribute of oid. The file is read during Apply's staging
// phase, before any lock is taken — a read failure aborts the batch with
// nothing applied, and no stripe lock is ever held across disk I/O.
func (b *Batch) CopyIn(oid OID, attr, srcPath string) {
	b.add(batchOp{kind: bCopyIn, oid: oid, s1: attr, s2: srcPath, spill: true})
}

// CopyInBytes stages already-read design bytes as the named blob
// attribute of oid, taking ownership of data — the zero-copy sibling of
// CopyIn for callers that stage the file themselves before taking their
// own locks (the checkin path). The caller must not retain or mutate
// data afterwards; unlike Set, no defensive copy is made.
func (b *Batch) CopyInBytes(oid OID, attr string, data []byte) {
	b.add(batchOp{kind: bSet, oid: oid, s1: attr, val: Value{Kind: KindBlob, Blob: data}, spill: true})
}

// Apply executes the batch atomically and returns the real OIDs of its
// Create ops in staging order (created[0] is the object placeholder -1
// resolved to). On error nothing remains applied: every op that ran is
// undone, in reverse, before the stripe locks are released, so concurrent
// designers can never observe a partially-applied batch — and since the
// locks are held from first op to last, they never observe an
// intermediate state of a successful batch either.
func (st *Store) Apply(b *Batch) ([]OID, error) {
	if b == nil || len(b.ops) == 0 {
		return nil, nil
	}
	if b.applied {
		return nil, fmt.Errorf("oms: batch already applied")
	}
	b.applied = true
	// Whole-Apply latency, all five phases; the deferred Since runs after
	// unlock (it is registered before the locks are taken) and is atomics
	// only. A zero start (timing disabled) records nothing.
	defer st.metrics.applyLatency.Since(obs.Now())

	// Phase 1 — lock-free validation and staging. Everything that can fail
	// without looking at live objects fails here, before any lock: schema
	// checks, placeholder sanity, file reads for CopyIn.
	var staged map[int]Value // op index -> file bytes for bCopyIn; lazy
	createsSeen := 0
	checkRef := func(oid OID) error {
		if oid >= 0 {
			return nil
		}
		if idx := int(-oid) - 1; idx >= createsSeen {
			return fmt.Errorf("oms: placeholder %d references a create staged later in the batch (or another batch)", oid)
		}
		return nil
	}
	for i := range b.ops {
		op := &b.ops[i]
		switch op.kind {
		case bCreate:
			if err := st.validateCreate(op.s1, op.attrs); err != nil {
				return nil, err
			}
			createsSeen++
		case bSet:
			if err := checkRef(op.oid); err != nil {
				return nil, err
			}
		case bLink, bUnlink:
			if st.schema.rel(op.s1) == nil {
				return nil, fmt.Errorf("oms: unknown relationship %q", op.s1)
			}
			if err := checkRef(op.oid); err != nil {
				return nil, err
			}
			if err := checkRef(op.to); err != nil {
				return nil, err
			}
		case bDelete:
			if err := checkRef(op.oid); err != nil {
				return nil, err
			}
		case bCopyIn:
			if err := checkRef(op.oid); err != nil {
				return nil, err
			}
			data, err := os.ReadFile(op.s2)
			if err != nil {
				return nil, fmt.Errorf("oms: copy-in: %w", err)
			}
			if staged == nil {
				staged = make(map[int]Value)
			}
			staged[i] = Value{Kind: KindBlob, Blob: data}
		}
	}

	// Phase 1b — spill large design blobs to the content-addressed store,
	// still lock-free: the CAS write happens here, before any stripe lock,
	// and only the ~40-byte reference continues into the commit. Spilled
	// blobs stay pinned against the GC sweep until the batch has committed
	// (or failed — then the orphan is collectible, by design).
	var unpins []func()
	defer func() {
		for _, unpin := range unpins {
			unpin()
		}
	}()
	for i := range b.ops {
		op := &b.ops[i]
		if !op.spill {
			continue
		}
		v := op.val
		if op.kind == bCopyIn {
			v = staged[i]
		}
		if !st.shouldSpill(v) {
			continue
		}
		ref, unpin, err := st.spill(v)
		if err != nil {
			return nil, err
		}
		unpins = append(unpins, unpin)
		if op.kind == bCopyIn {
			staged[i] = ref
		} else {
			op.val = ref
		}
	}

	// Phase 2 — allocate the real OIDs for every staged create, one
	// consecutive range (allocMu is never held together with a stripe
	// lock). A failed batch hands the range back unless a later
	// allocation followed it; then it leaves a gap, which is harmless.
	created := make([]OID, 0, b.creates)
	if b.creates > 0 {
		first := st.allocOIDs(b.creates)
		for i := 0; i < b.creates; i++ {
			created = append(created, first+OID(i))
		}
	}
	res := func(oid OID) OID {
		if oid < 0 {
			return created[int(-oid)-1]
		}
		return oid
	}

	// Phase 3 — compute the touched stripe set and lock it once, in
	// ascending stripe order (consistent with lockAll). A Delete
	// reaches arbitrary stripes through the victim's links, so its
	// presence widens the set to all stripes.
	var mask uint32
	needAll := false
	for _, op := range b.ops {
		switch op.kind {
		case bCreate:
			// resolved below via created; creates are indexed in order
		case bSet, bCopyIn:
			mask |= 1 << stripeIdx(res(op.oid))
		case bLink, bUnlink:
			mask |= 1 << stripeIdx(res(op.oid))
			mask |= 1 << stripeIdx(res(op.to))
		case bDelete:
			needAll = true
		}
	}
	for _, oid := range created {
		mask |= 1 << stripeIdx(oid)
	}
	if needAll {
		mask = 1<<numStripes - 1
	}
	wait := st.metrics.stripeSampler.Sample(stripeWaitStride)
	for i := 0; i < numStripes; i++ {
		if mask&(1<<i) != 0 {
			st.stripes[i].mu.Lock()
		}
	}
	st.metrics.stripeWait.Since(wait)
	unlock := func() {
		for i := numStripes - 1; i >= 0; i-- {
			if mask&(1<<i) != 0 {
				st.stripes[i].mu.Unlock()
			}
		}
	}

	// Phase 4 — execute. The first error rolls back every applied op (in
	// reverse) before the locks drop: all-or-nothing. Nothing is
	// published to the change feed until the whole batch has succeeded,
	// so a failed batch leaves no trace in the feed either.
	applieds := make([]applied, 0, len(b.ops))
	nextCreate := 0
	for i, op := range b.ops {
		var a applied
		var err error
		switch op.kind {
		case bCreate:
			a = st.insertLocked(created[nextCreate], op.s1, op.attrs)
			nextCreate++
		case bSet:
			a, err = st.setLockedU(res(op.oid), op.s1, op.val)
		case bCopyIn:
			a, err = st.setLockedU(res(op.oid), op.s1, staged[i])
		case bLink:
			a, err = st.linkLockedU(op.s1, res(op.oid), res(op.to))
		case bUnlink:
			a = st.unlinkLockedU(op.s1, res(op.oid), res(op.to))
		case bDelete:
			var as []applied
			as, err = st.deleteLockedU(res(op.oid))
			applieds = append(applieds, as...)
		}
		if err != nil {
			for j := len(applieds) - 1; j >= 0; j-- {
				applieds[j].undo(st)
			}
			unlock()
			if len(created) > 0 {
				st.releaseOIDs(created[0], len(created))
			}
			return nil, fmt.Errorf("oms: apply op %d: %w", i, err)
		}
		if a.undo != nil {
			applieds = append(applieds, a)
		}
	}

	// Phase 5 — the batch is now permanent: publish every effect to the
	// change feed as ONE contiguous group, still under the stripe locks,
	// so no subscriber can ever observe a torn batch.
	st.feed.publish(applieds)
	unlock()
	return created, nil
}
