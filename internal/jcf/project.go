package jcf

import (
	"cmp"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/oms"
)

// Project data: projects own cells; cells have cell versions; each cell
// version carries an attached flow and team and contains variants; design
// objects (typed by view type) live under variants and are versioned with
// derivation/equivalence relations (section 2.1).

// CreateProject creates a project supported by the given team. The
// project object and its supports link commit as one batch: no reader
// ever observes an unsupported project, and a bad team OID fails the
// whole creation instead of stranding a linkless project.
func (fw *Framework) CreateProject(name string, team oms.OID) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	return fw.named("Project", name, func(b *oms.Batch, oid oms.OID) {
		b.Link(fw.rel.supports, team, oid)
	})
}

// Project returns a project OID by name.
func (fw *Framework) Project(name string) (oms.OID, error) {
	return fw.lookupNamed("Project", name)
}

// CreateCell creates a cell within a project. Cell names are unique per
// project: numMu spans the duplicate check and the Apply, as in named(),
// so two callers cannot both pass the check.
func (fw *Framework) CreateCell(project oms.OID, name string) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	if name == "" {
		return oms.InvalidOID, fmt.Errorf("jcf: empty cell name")
	}
	fw.numMu.Lock()
	defer fw.numMu.Unlock()
	for _, c := range fw.store.Targets(fw.rel.has, project) {
		if fw.store.GetString(c, "name") == name {
			return oms.InvalidOID, fmt.Errorf("%w: cell %q in project", ErrExists, name)
		}
	}
	// One batch: the cell and its containment link are never observable
	// apart, and a bad project OID cannot strand an unlinked cell.
	b := fw.getBatch()
	defer fw.putBatch(b)
	oid := b.Create("Cell", map[string]oms.Value{"name": oms.S(name)})
	b.Link(fw.rel.has, project, oid)
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// Cell finds a cell by name within a project.
func (fw *Framework) Cell(project oms.OID, name string) (oms.OID, error) {
	for _, c := range fw.store.Targets(fw.rel.has, project) {
		if fw.store.GetString(c, "name") == name {
			return c, nil
		}
	}
	return oms.InvalidOID, fmt.Errorf("%w: cell %q", ErrNotFound, name)
}

// Cells returns the cell names of a project, sorted.
func (fw *Framework) Cells(project oms.OID) []string {
	var out []string
	for _, c := range fw.store.Targets(fw.rel.has, project) {
		out = append(out, fw.store.GetString(c, "name"))
	}
	sort.Strings(out)
	return out
}

// CellName returns the name of a cell.
func (fw *Framework) CellName(cell oms.OID) string {
	return fw.store.GetString(cell, "name")
}

// CreateCellVersion instantiates a cell with the given flow and
// responsible team. The version number is assigned automatically. Each
// cell version may carry a different flow and team (section 2.1). An
// initial variant 1 is created along with it.
//
// The whole six-op sequence (version + ownership link + flow link + team
// link + initial variant + its link) commits as one oms.Batch: a failure
// anywhere — say, team is not a Team object — leaves no half-wired cell
// version behind, where the old op-by-op path could leave a version
// without flow, team or variant. numMu spans the count and the Apply that
// makes the new version countable, so concurrent designers never allocate
// the same number.
func (fw *Framework) CreateCellVersion(cell oms.OID, flowName string, team oms.OID) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	flowOID, err := fw.lookupNamed("Flow", flowName)
	if err != nil {
		return oms.InvalidOID, err
	}
	fw.numMu.Lock()
	defer fw.numMu.Unlock()
	num := int64(len(fw.store.Targets(fw.rel.cellHasVersion, cell)) + 1)
	b := oms.NewBatch()
	cv := b.CreateOwned("CellVersion", map[string]oms.Value{
		"num":       oms.I(num),
		"published": oms.B(false),
	})
	b.Link(fw.rel.cellHasVersion, cell, cv)
	b.Link(fw.rel.attachedFlow, cv, flowOID)
	b.Link(fw.rel.attachedTeam, cv, team)
	v := b.CreateOwned("Variant", map[string]oms.Value{"num": oms.I(1)})
	b.Link(fw.rel.hasVariant, cv, v)
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// sortByIntAttr orders OIDs by an int attribute, fetching each key from
// the store once up front — O(n) lock round-trips instead of the
// O(n log n) a store-hitting sort comparator pays.
func (fw *Framework) sortByIntAttr(oids []oms.OID, attr string) {
	keys := make([]int64, len(oids))
	for i, o := range oids {
		keys[i] = fw.store.GetInt(o, attr)
	}
	sort.Sort(&byKey[int64]{oids: oids, keys: keys})
}

// sortByStringAttr is sortByIntAttr for string keys.
func (fw *Framework) sortByStringAttr(oids []oms.OID, attr string) {
	keys := make([]string, len(oids))
	for i, o := range oids {
		keys[i] = fw.store.GetString(o, attr)
	}
	sort.Sort(&byKey[string]{oids: oids, keys: keys})
}

// byKey sorts an OID slice by a parallel slice of pre-fetched keys.
type byKey[K cmp.Ordered] struct {
	oids []oms.OID
	keys []K
}

func (s *byKey[K]) Len() int           { return len(s.oids) }
func (s *byKey[K]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey[K]) Swap(i, j int) {
	s.oids[i], s.oids[j] = s.oids[j], s.oids[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// CellVersions returns the cell version OIDs of a cell, in version order.
func (fw *Framework) CellVersions(cell oms.OID) []oms.OID {
	cvs := fw.store.Targets(fw.rel.cellHasVersion, cell)
	fw.sortByIntAttr(cvs, "num")
	return cvs
}

// CellVersionNum returns the version number of a cell version.
func (fw *Framework) CellVersionNum(cv oms.OID) int64 {
	return fw.store.GetInt(cv, "num")
}

// CellOf returns the cell owning a cell version.
func (fw *Framework) CellOf(cv oms.OID) (oms.OID, error) {
	src := fw.store.Sources(fw.rel.cellHasVersion, cv)
	if len(src) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: cell of version %d", ErrNotFound, cv)
	}
	return src[0], nil
}

// AttachedFlowName returns the flow name attached to a cell version.
func (fw *Framework) AttachedFlowName(cv oms.OID) (string, error) {
	f := fw.store.Target(fw.rel.attachedFlow, cv)
	if f == oms.InvalidOID {
		return "", fmt.Errorf("%w: flow of cell version", ErrNotFound)
	}
	return fw.store.GetString(f, "name"), nil
}

// AttachedTeam returns the team attached to a cell version.
func (fw *Framework) AttachedTeam(cv oms.OID) (oms.OID, error) {
	t := fw.store.Target(fw.rel.attachedTeam, cv)
	if t == oms.InvalidOID {
		return oms.InvalidOID, fmt.Errorf("%w: team of cell version", ErrNotFound)
	}
	return t, nil
}

// --- variants --------------------------------------------------------------

// CreateVariant creates a fresh variant under a cell version (numbered
// automatically). Variants let users "store the modifications and select
// the optimal design solution" (section 2.1). Creation and the hasVariant
// link commit as one batch: a numbered variant can never exist detached
// from its cell version.
func (fw *Framework) CreateVariant(cv oms.OID) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	fw.numMu.Lock()
	defer fw.numMu.Unlock()
	num := int64(len(fw.store.Targets(fw.rel.hasVariant, cv)) + 1)
	b := oms.NewBatch()
	v := b.CreateOwned("Variant", map[string]oms.Value{"num": oms.I(num)})
	b.Link(fw.rel.hasVariant, cv, v)
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// DeriveVariant creates a new variant derived from an existing one,
// recording the precedes relation. The new variant shares the design
// objects of its predecessor (they are "used" by both until replaced).
//
// The derivation is one atomic batch: variant, hasVariant link,
// variantPrecedes link and every shared-uses link land together, so a
// failure can no longer strand a numbered variant that is attached to the
// cell version but has no precedes edge or design objects. The source's
// cell version is resolved inside the numbering lock — resolving it
// before numMu let a concurrent re-parent race the count.
func (fw *Framework) DeriveVariant(from oms.OID) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	fw.numMu.Lock()
	defer fw.numMu.Unlock()
	cvSrc := fw.store.Sources(fw.rel.hasVariant, from)
	if len(cvSrc) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: variant %d", ErrNotFound, from)
	}
	cv := cvSrc[0]
	num := int64(len(fw.store.Targets(fw.rel.hasVariant, cv)) + 1)
	b := oms.NewBatch()
	v := b.CreateOwned("Variant", map[string]oms.Value{"num": oms.I(num)})
	b.Link(fw.rel.hasVariant, cv, v)
	b.Link(fw.rel.variantPrecedes, from, v)
	for _, do := range fw.store.Targets(fw.rel.uses, from) {
		b.Link(fw.rel.uses, v, do)
	}
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// Variants returns the variant OIDs of a cell version in variant order.
func (fw *Framework) Variants(cv oms.OID) []oms.OID {
	vs := fw.store.Targets(fw.rel.hasVariant, cv)
	fw.sortByIntAttr(vs, "num")
	return vs
}

// VariantNum returns a variant's number.
func (fw *Framework) VariantNum(v oms.OID) int64 { return fw.store.GetInt(v, "num") }

// VariantSuccessors returns the variants derived from v (the precedes
// relation may branch: a user can derive several alternatives from the
// same variant).
func (fw *Framework) VariantSuccessors(v oms.OID) []oms.OID {
	return fw.store.Targets(fw.rel.variantPrecedes, v)
}

// VariantPredecessor returns the variant v was derived from (InvalidOID
// for an original variant).
func (fw *Framework) VariantPredecessor(v oms.OID) oms.OID {
	src := fw.store.Sources(fw.rel.variantPrecedes, v)
	if len(src) == 0 {
		return oms.InvalidOID
	}
	return src[0]
}

// --- design objects ---------------------------------------------------------

// CreateDesignObject creates a named, view-typed design object used by a
// variant. Object, uses link and ofViewType link commit as one batch —
// passing a non-ViewType OID no longer leaves an untyped design object
// attached to the variant.
func (fw *Framework) CreateDesignObject(variant oms.OID, name string, viewType oms.OID) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	if name == "" {
		return oms.InvalidOID, fmt.Errorf("jcf: empty design object name")
	}
	b := fw.getBatch()
	defer fw.putBatch(b)
	do := b.CreateOwned("DesignObject", map[string]oms.Value{"name": oms.S(name)})
	b.Link(fw.rel.uses, variant, do)
	b.Link(fw.rel.ofViewType, do, viewType)
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// DesignObjects returns the design objects used by a variant, sorted by
// name.
func (fw *Framework) DesignObjects(variant oms.OID) []oms.OID {
	dos := fw.store.Targets(fw.rel.uses, variant)
	fw.sortByStringAttr(dos, "name")
	return dos
}

// DesignObjectName returns a design object's name.
func (fw *Framework) DesignObjectName(do oms.OID) string { return fw.store.GetString(do, "name") }

// DesignObjectByName finds a design object of a variant by name.
func (fw *Framework) DesignObjectByName(variant oms.OID, name string) (oms.OID, error) {
	for _, do := range fw.store.Targets(fw.rel.uses, variant) {
		if fw.store.GetString(do, "name") == name {
			return do, nil
		}
	}
	return oms.InvalidOID, fmt.Errorf("%w: design object %q", ErrNotFound, name)
}

// ViewTypeOf returns the view type name of a design object. A design
// object without an ofViewType link is an error, like its sibling
// accessors — the old signature silently answered "" and callers could
// not tell a missing link from a view type actually named "".
func (fw *Framework) ViewTypeOf(do oms.OID) (string, error) {
	vt := fw.store.Target(fw.rel.ofViewType, do)
	if vt == oms.InvalidOID {
		return "", fmt.Errorf("%w: view type of design object %d", ErrNotFound, do)
	}
	return fw.store.GetString(vt, "name"), nil
}

// DesignObjectVersions returns the version OIDs of a design object in
// version order, which is OID order (see newestVersion).
func (fw *Framework) DesignObjectVersions(do oms.OID) []oms.OID {
	return fw.store.Targets(fw.rel.doHasVersion, do)
}

// LatestVersion returns the newest design object version (InvalidOID when
// none exists yet).
func (fw *Framework) LatestVersion(do oms.OID) oms.OID {
	v, _ := fw.newestVersion(do)
	return v
}

// newestVersion returns a design object's newest version (InvalidOID
// when there is none) and its number of versions, as the highest-OID
// doHasVersion target: one store read, which reads no version object
// and allocates nothing however long the history.
//
// The highest OID is the newest version because versions are created
// only by CheckInData, one at a time under numMu, each numbered one past
// the count; OIDs only grow (releaseOIDs rewinds only an unused top of
// the range, and LoadFrom and replicas keep the primary's OIDs); and no
// API deletes a version. So a design object's versions in OID order are
// numbered 1..n — CheckConsistency reports any that are not.
func (fw *Framework) newestVersion(do oms.OID) (oms.OID, int) {
	return fw.store.MaxTarget(fw.rel.doHasVersion, do)
}

// VersionNum returns a design object version's number.
func (fw *Framework) VersionNum(dov oms.OID) int64 { return fw.store.GetInt(dov, "num") }

// --- slave-cell bindings ----------------------------------------------------

// AttrSlaveCell is the CellVersion attribute that binds a version to a
// slave-framework cell. BindSlaveCell sets it as its batch's last op, so a
// change-feed consumer that sees the Set can read the whole binding.
const AttrSlaveCell = "slaveCell"

// BindSlaveCell binds cell version cv to slaveCell in one batch: one
// design object per view type in cv's first variant, named
// <cell>-<view type>, then cv's AttrSlaveCell. A version that carries the
// mark therefore has all its design objects in any cut of the store.
func (fw *Framework) BindSlaveCell(cv oms.OID, slaveCell string, viewTypes []string) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	variant, prefix := fw.bindingVariant(cv)
	if variant == oms.InvalidOID {
		return fmt.Errorf("%w: cell or first variant of cell version %d", ErrNotFound, cv)
	}
	b := fw.getBatch()
	defer fw.putBatch(b)
	for _, view := range viewTypes {
		vt, err := fw.ViewType(view)
		if err != nil {
			return err
		}
		do := b.CreateOwned("DesignObject", map[string]oms.Value{"name": oms.S(prefix + view)})
		b.Link(fw.rel.uses, variant, do)
		b.Link(fw.rel.ofViewType, do, vt)
	}
	b.Set(cv, AttrSlaveCell, oms.S(slaveCell))
	_, err := fw.store.Apply(b)
	return err
}

// SlaveBinding reads cv's binding from the store: its slave cell and, by
// view type, the design objects BindSlaveCell created. ok is false for an
// unbound version.
func (fw *Framework) SlaveBinding(cv oms.OID) (slaveCell string, designObjects map[string]oms.OID, ok bool) {
	slaveCell = fw.store.GetString(cv, AttrSlaveCell)
	if slaveCell == "" {
		return "", nil, false
	}
	designObjects = map[string]oms.OID{}
	variant, prefix := fw.bindingVariant(cv)
	for _, do := range fw.store.Targets(fw.rel.uses, variant) {
		if view, err := fw.ViewTypeOf(do); err == nil && fw.store.GetString(do, "name") == prefix+view {
			designObjects[view] = do
		}
	}
	return slaveCell, designObjects, true
}

// bindingVariant returns cv's first variant, which holds its bound design
// objects, and their "<cell>-" name prefix; InvalidOID when cv has no
// cell or no variant.
func (fw *Framework) bindingVariant(cv oms.OID) (oms.OID, string) {
	cells, variants := fw.store.Sources(fw.rel.cellHasVersion, cv), fw.Variants(cv)
	if len(cells) == 0 || len(variants) == 0 {
		return oms.InvalidOID, ""
	}
	return variants[0], fw.CellName(cells[0]) + "-"
}

// CellVersionFor returns the cell version bound to slaveCell: the one
// CellVersion whose AttrSlaveCell names it. It is an error when none
// does, or when more than one does.
func (fw *Framework) CellVersionFor(slaveCell string) (oms.OID, error) {
	cvs := fw.store.FindByAttr("CellVersion", AttrSlaveCell, oms.S(slaveCell))
	switch len(cvs) {
	case 0:
		return oms.InvalidOID, fmt.Errorf("%w: cell version bound to slave cell %q", ErrNotFound, slaveCell)
	case 1:
		return cvs[0], nil
	}
	return oms.InvalidOID, fmt.Errorf("jcf: slave cell %q is bound to %d cell versions %v", slaveCell, len(cvs), cvs)
}

// BoundCellVersions lists the cell versions bound to a slave cell, in OID
// order.
func (fw *Framework) BoundCellVersions() []oms.OID {
	var out []oms.OID
	for _, cv := range fw.store.All("CellVersion") {
		if fw.store.GetString(cv, AttrSlaveCell) != "" {
			out = append(out, cv)
		}
	}
	return out
}

// --- design data (copy-in / copy-out) ---------------------------------------

// CheckInData reads the design file at srcPath into the database as the
// next version of the design object, automatically recording a derivation
// from the previous version. The caller must hold the workspace
// reservation on the owning cell version.
//
// The checkin is the paper's copy-in sequence (section 3.6) and commits
// as ONE atomic batch — version create, doHasVersion link, data blob,
// derivation link — so a failure anywhere leaves no orphaned, dataless
// DesignObjectVersion behind (the old op-by-op path could). The design
// file is staged into memory first, outside every lock; then fw.mu is
// held for reading from the reservation check until the batch has
// committed, so a concurrent Publish or ReleaseReservation (fw.mu
// writers) can no longer drop the reservation between the check and the
// blob landing: the batch commits only while the user still holds the
// workspace. Lock order: fw.mu -> numMu -> store stripes.
func (fw *Framework) CheckInData(user string, do oms.OID, srcPath string) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	cv, err := fw.cellVersionOfDesignObject(do)
	if err != nil {
		return oms.InvalidOID, err
	}
	// Cheap unlocked pre-check so a caller without the reservation is
	// rejected before the file is read; the verdict that matters is the
	// re-check below, under the same fw.mu hold the commit runs in.
	if err := fw.requireReservation(user, cv); err != nil {
		return oms.InvalidOID, err
	}
	// The pipeline span: stage stamps land in the per-stage histograms
	// and feed the slow-op log. Done is deferred BEFORE fw.mu.RLock, so
	// its (possible) slow-op line is formatted and written only after
	// every lock below has been released.
	sp := obs.StartSpan("jcf.checkin")
	defer sp.Done(&fw.metrics.checkinTotal)
	data, err := os.ReadFile(srcPath)
	if err != nil {
		return oms.InvalidOID, fmt.Errorf("jcf: check-in: %w", err)
	}
	sp.Stage("read", &fw.metrics.checkinRead)
	// Stage 1 of the async pipeline (ISSUE 9): with a blob store enabled
	// and the design at or above the spill threshold, hash now, upload on
	// the store's bounded worker pool, and commit only the ~40-byte ref —
	// the metadata batch below no longer scales with design size. The
	// upload is registered on the cell version's ledger BEFORE the commit
	// so Publish's durability gate can never miss it, and the blob is
	// pinned against the GC sweep from before its backend write (inside
	// startUpload) until the batch has resolved (the deferred release).
	var up *blobUpload
	if fw.blobs != nil && len(data) >= fw.blobThreshold {
		up = fw.startUpload(cv, data)
		sp.Stage("digest", &fw.metrics.checkinDigest)
		defer up.release()
	}
	fw.mu.RLock()
	defer fw.mu.RUnlock()
	if err := fw.requireReservation(user, cv); err != nil {
		if up != nil {
			fw.abandonUpload(cv, up)
		}
		return oms.InvalidOID, err
	}
	fw.numMu.Lock()
	defer fw.numMu.Unlock()
	// One store read answers both the predecessor and the next number.
	pred, count := fw.newestVersion(do)
	num := int64(count + 1)
	b := fw.getBatch()
	defer fw.putBatch(b)
	dov := b.CreateOwned("DesignObjectVersion", map[string]oms.Value{"num": oms.I(num)})
	b.Link(fw.rel.doHasVersion, do, dov)
	if up != nil {
		// Stage 2: metadata only — the bytes are already on their way.
		b.Set(dov, "data", oms.BlobRef(up.ref))
	} else {
		b.CopyInBytes(dov, "data", data)
	}
	if pred != oms.InvalidOID {
		b.Link(fw.rel.derived, pred, dov)
	}
	sp.Stage("prepare", nil)
	created, err := fw.store.Apply(b)
	sp.Stage("apply", &fw.metrics.checkinApply)
	if err != nil {
		if up != nil {
			fw.abandonUpload(cv, up)
		}
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// CheckOutData copies a design object version's data out of the database
// to dstPath. Reading requires that the user holds the reservation or the
// owning cell version is published — and it always pays the full copy,
// "even in the case of read only accesses" (section 3.6).
func (fw *Framework) CheckOutData(user string, dov oms.OID, dstPath string) error {
	do, err := fw.designObjectOfVersion(dov)
	if err != nil {
		return err
	}
	cv, err := fw.cellVersionOfDesignObject(do)
	if err != nil {
		return err
	}
	if !fw.CanRead(user, cv) {
		return fmt.Errorf("%w (user %s)", ErrNotPublished, user)
	}
	_, err = fw.store.CopyOut(dov, "data", dstPath)
	return err
}

// ExportVersionData copies a design object version's data blob to
// dstPath without a user-permission check — the trusted export the
// coupling layer (internal/core) uses to mirror direct checkins into
// the slave library. Tools never call this; they go through
// CheckOutData, which enforces the workspace rules.
func (fw *Framework) ExportVersionData(dov oms.OID, dstPath string) error {
	_, err := fw.store.CopyOut(dov, "data", dstPath)
	return err
}

// DataSize returns the stored size in bytes of a design object version.
// A content-addressed version answers from its ref alone — no blob read.
func (fw *Framework) DataSize(dov oms.OID) (int64, error) {
	v, ok, err := fw.store.Get(dov, "data")
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	if v.Kind == oms.KindBlobRef {
		return v.Int, nil
	}
	return int64(len(v.Blob)), nil
}

func (fw *Framework) designObjectOfVersion(dov oms.OID) (oms.OID, error) {
	src := fw.store.Sources(fw.rel.doHasVersion, dov)
	if len(src) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: design object of version", ErrNotFound)
	}
	return src[0], nil
}

// cellVersionOfDesignObject walks design object -> variant -> cell version.
func (fw *Framework) cellVersionOfDesignObject(do oms.OID) (oms.OID, error) {
	variants := fw.store.Sources(fw.rel.uses, do)
	if len(variants) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: variant of design object", ErrNotFound)
	}
	// A design object may be shared across derived variants of the same
	// cell version; any of them resolves to the same cell version.
	cvs := fw.store.Sources(fw.rel.hasVariant, variants[0])
	if len(cvs) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: cell version of variant", ErrNotFound)
	}
	return cvs[0], nil
}

// --- derivation and equivalence ----------------------------------------------

// RecordDerivation records that `to` was derived from `from` (e.g. a layout
// version derived from a schematic version). JCF records all derivation
// relationships between schematic and layout versions (section 2.4).
func (fw *Framework) RecordDerivation(from, to oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	return fw.link(fw.rel.derived, from, to)
}

// RecordEquivalence records that two design object versions are equivalent
// representations.
func (fw *Framework) RecordEquivalence(a, b oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	return fw.link(fw.rel.equivalent, a, b)
}

// DerivedFrom returns the direct derivation sources of a version.
func (fw *Framework) DerivedFrom(dov oms.OID) []oms.OID {
	return fw.store.Sources(fw.rel.derived, dov)
}

// Derivatives returns the direct derivation targets of a version.
func (fw *Framework) Derivatives(dov oms.OID) []oms.OID {
	return fw.store.Targets(fw.rel.derived, dov)
}

// EquivalentTo returns versions recorded equivalent to dov (both
// directions).
func (fw *Framework) EquivalentTo(dov oms.OID) []oms.OID {
	set := map[oms.OID]bool{}
	for _, o := range fw.store.Targets(fw.rel.equivalent, dov) {
		set[o] = true
	}
	for _, o := range fw.store.Sources(fw.rel.equivalent, dov) {
		set[o] = true
	}
	out := make([]oms.OID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DerivationClosure returns every version transitively derived from dov
// (not including dov), sorted — the "what-belongs-to-what" information
// plain FMCAD cannot answer (section 3.5).
func (fw *Framework) DerivationClosure(dov oms.OID) []oms.OID {
	seen := map[oms.OID]bool{}
	var walk func(oms.OID)
	walk = func(o oms.OID) {
		for _, d := range fw.store.Targets(fw.rel.derived, o) {
			if !seen[d] {
				seen[d] = true
				walk(d)
			}
		}
	}
	walk(dov)
	out := make([]oms.OID, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
