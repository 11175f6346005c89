package jcf

import (
	"fmt"

	"repro/internal/oms"
)

// Configurations (Figure 1, "Configurations" region): a configuration
// belongs to a cell version and is itself versioned; each configuration
// version collects design object versions ("has entry"). Together with the
// two-level cell/variant versioning this is the configuration-management
// strength the paper attributes to JCF (section 3.2).

// CreateConfiguration creates a named configuration for a cell version
// with an initial configuration version 1. Configuration, its configures
// link, the initial version and its ownership link commit as ONE batch:
// a failure anywhere (say, cv is not a CellVersion) leaves no detached
// Configuration or versionless stub behind.
func (fw *Framework) CreateConfiguration(cv oms.OID, name string) (cfg, cfgVersion oms.OID, err error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, oms.InvalidOID, err
	}
	if name == "" {
		return oms.InvalidOID, oms.InvalidOID, fmt.Errorf("jcf: empty configuration name")
	}
	b := fw.getBatch()
	defer fw.putBatch(b)
	cfgPH := b.CreateOwned("Configuration", map[string]oms.Value{"name": oms.S(name)})
	b.Link(fw.rel.configures, cfgPH, cv)
	verPH := b.CreateOwned("ConfigVersion", map[string]oms.Value{"num": oms.I(1)})
	b.Link(fw.rel.cfgHasVersion, cfgPH, verPH)
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, oms.InvalidOID, err
	}
	return created[0], created[1], nil
}

// DeriveConfigVersion creates the next configuration version, copying the
// entries of the predecessor and recording the precedes relation.
//
// The whole derivation — version, ownership link, precedes edge and the
// copied entry links — is one atomic batch. A losing concurrent derive
// (a config version has at most one successor, so only one precedes
// link can land) fails the batch and leaves nothing behind; the old
// op-by-op path had to retract a half-created version by hand.
func (fw *Framework) DeriveConfigVersion(from oms.OID) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	cfgSrc := fw.store.Sources(fw.rel.cfgHasVersion, from)
	if len(cfgSrc) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: configuration of version", ErrNotFound)
	}
	// numMu spans the numbering decision and the Apply that makes the
	// new version visible to it — the same discipline CreateCellVersion
	// and CreateVariant use — so concurrent derives on one configuration
	// never allocate duplicate numbers. The number is max+1 rather than
	// count+1: a failed losing derive leaves a numbering gap, and a
	// count would then re-issue a live number.
	fw.numMu.Lock()
	defer fw.numMu.Unlock()
	num := int64(1)
	for _, v := range fw.store.Targets(fw.rel.cfgHasVersion, cfgSrc[0]) {
		if n := fw.store.GetInt(v, "num"); n >= num {
			num = n + 1
		}
	}
	b := fw.getBatch()
	defer fw.putBatch(b)
	next := b.CreateOwned("ConfigVersion", map[string]oms.Value{"num": oms.I(num)})
	b.Link(fw.rel.cfgHasVersion, cfgSrc[0], next)
	b.Link(fw.rel.cfgPrecedes, from, next)
	for _, e := range fw.store.Targets(fw.rel.hasEntry, from) {
		b.Link(fw.rel.hasEntry, next, e)
	}
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// AddConfigEntry binds a design object version into a configuration
// version. At most one version per design object may be bound (the same
// constraint FMCAD configs have); a second bind for the same design object
// replaces the old entry.
func (fw *Framework) AddConfigEntry(cfgVersion, dov oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	do, err := fw.designObjectOfVersion(dov)
	if err != nil {
		return err
	}
	// Replace atomically: the unlink of the old entry and the link of
	// the new one commit as one batch, so no reader of ConfigEntries
	// ever observes the design object momentarily unbound (the window
	// the op-by-op version had between Unlink and Link).
	b := fw.getBatch()
	defer fw.putBatch(b)
	for _, e := range fw.store.Targets(fw.rel.hasEntry, cfgVersion) {
		eDO, err := fw.designObjectOfVersion(e)
		if err != nil {
			continue
		}
		if eDO == do {
			b.Unlink(fw.rel.hasEntry, cfgVersion, e)
		}
	}
	b.Link(fw.rel.hasEntry, cfgVersion, dov)
	_, err = fw.store.Apply(b)
	return err
}

// ConfigEntries returns the design object versions bound in a
// configuration version, sorted by OID.
func (fw *Framework) ConfigEntries(cfgVersion oms.OID) []oms.OID {
	return fw.store.Targets(fw.rel.hasEntry, cfgVersion)
}

// ConfigVersions returns the version OIDs of a configuration in order.
func (fw *Framework) ConfigVersions(cfg oms.OID) []oms.OID {
	vs := fw.store.Targets(fw.rel.cfgHasVersion, cfg)
	fw.sortByIntAttr(vs, "num")
	return vs
}

// ConfigurationsOf returns the configurations attached to a cell version.
// The configures backlink answers this directly — no scan over every
// Configuration object in the store.
func (fw *Framework) ConfigurationsOf(cv oms.OID) []oms.OID {
	return fw.store.Sources(fw.rel.configures, cv)
}

// --- consistency checking ------------------------------------------------

// Inconsistency describes one problem found by CheckConsistency.
type Inconsistency struct {
	Kind   string // e.g. "dangling-hierarchy", "unversioned-object", "stale-derivation"
	Detail string
}

// CheckConsistency runs the data-consistency checks the paper credits to
// JCF's separated metadata (section 3.2): every compOf child must still
// exist and be a cell version; every design object a variant uses must
// exist; every configuration entry must point at a live version; every
// design object's versions, in OID order, must be numbered 1..n. It
// returns all problems found (empty means consistent).
//
// It is feed-driven and incremental: the sweep's verdict is cached
// together with the feed position it was computed at, and a later call
// first scans the change-feed suffix — if nothing touched the checked
// relationships (compOf / uses / hasEntry / version ownership), the
// published flags or version numbering, the cached verdict is returned
// without visiting the store at all. An unchanged (or
// irrelevantly-changed) database answers in O(changes since last check);
// checkin-heavy traffic in particular never invalidates. Any relevant
// change — or a feed suffix the ring has already evicted — triggers a
// full sweep.
//
// Replicas run this too (their follower stores republish the primary's
// feed), which is what makes it a cheap post-catch-up convergence
// self-check.
func (fw *Framework) CheckConsistency() []Inconsistency {
	fw.cc.mu.Lock()
	defer fw.cc.mu.Unlock()
	if fw.cc.valid {
		recs, ok := fw.store.Changes(fw.cc.lsn)
		if ok && !fw.consistencyRelevant(recs) {
			if len(recs) > 0 {
				fw.cc.lsn = recs[len(recs)-1].LSN
			}
			return append([]Inconsistency(nil), fw.cc.cache...)
		}
	}
	return fw.refreshConsistencyLocked()
}

// refreshConsistencyLocked sweeps and refills the cache; caller holds
// fw.cc.mu. The feed position is read BEFORE the sweep: changes landing
// while the sweep runs are re-examined by the next call — conservative,
// never stale.
func (fw *Framework) refreshConsistencyLocked() []Inconsistency {
	at := fw.store.FeedLSN()
	out := fw.consistencySweep()
	fw.cc.valid, fw.cc.lsn, fw.cc.cache = true, at, out
	return append([]Inconsistency(nil), out...)
}

// consistencyRelevant reports whether any record in the suffix can
// change the sweep's verdict.
func (fw *Framework) consistencyRelevant(recs []oms.Change) bool {
	for _, c := range recs {
		switch c.Kind {
		case oms.ChangeLink, oms.ChangeUnlink:
			switch c.Rel {
			case fw.rel.compOf, fw.rel.uses, fw.rel.hasEntry, fw.rel.cellHasVersion:
				return true
			case fw.rel.doHasVersion:
				// A link is a checkin, which numbers its version one
				// past the count and so keeps versions numbered 1..n;
				// an unlink leaves a gap.
				if c.Kind == oms.ChangeUnlink {
					return true
				}
			}
		case oms.ChangeSet:
			// "published" drives the stale-hierarchy check, "num" the
			// newest-version ordering.
			if c.Attr == "published" || c.Attr == "num" {
				return true
			}
		case oms.ChangeCreate:
			// Creates cannot dangle an existing edge (OIDs are never
			// reused); only a CellVersion create matters, via the
			// newest-published-version ordering. In particular a
			// DesignObjectVersion create — every checkin — does NOT
			// invalidate, which is what keeps checkin-heavy traffic on
			// the cached path.
			if c.Class == "CellVersion" {
				return true
			}
		case oms.ChangeDelete:
			switch c.Class {
			case "CellVersion", "Cell", "DesignObject", "DesignObjectVersion":
				return true
			}
		}
	}
	return false
}

// consistencySweep is the actual store walk behind both entry points.
// The sweep enumerates each relationship type straight from the store's
// relationship index (Related) instead of walking every object of the
// owning class and asking for its targets — on a populated design
// database the sweep only ever visits objects that actually participate.
func (fw *Framework) consistencySweep() []Inconsistency {
	var out []Inconsistency
	compOf := fw.store.Related(fw.rel.compOf)
	for _, p := range compOf {
		if !fw.store.Exists(p.To) {
			out = append(out, Inconsistency{
				Kind:   "dangling-hierarchy",
				Detail: fmt.Sprintf("cell version %d composed of missing %d", p.From, p.To),
			})
		}
	}
	for _, p := range fw.store.Related(fw.rel.uses) {
		if !fw.store.Exists(p.To) {
			out = append(out, Inconsistency{
				Kind:   "missing-design-object",
				Detail: fmt.Sprintf("variant %d uses missing design object %d", p.From, p.To),
			})
		}
	}
	for _, p := range fw.store.Related(fw.rel.hasEntry) {
		if !fw.store.Exists(p.To) {
			out = append(out, Inconsistency{
				Kind:   "dangling-config-entry",
				Detail: fmt.Sprintf("config version %d binds missing version %d", p.From, p.To),
			})
		}
	}
	// Version numbering: a design object's versions, in OID order, are
	// numbered 1..n — the invariant newestVersion relies on.
	for _, do := range fw.store.ObjectsOf(fw.rel.doHasVersion) {
		for i, dov := range fw.store.Targets(fw.rel.doHasVersion, do) {
			if n := fw.store.GetInt(dov, "num"); n != int64(i+1) {
				out = append(out, Inconsistency{
					Kind: "version-order",
					Detail: fmt.Sprintf("design object %d: version %d is numbered %d, want %d in OID order",
						do, dov, n, i+1),
				})
				break
			}
		}
	}
	// Hierarchy/version staleness: a published parent whose child cell has
	// a newer published version than the one in the hierarchy.
	for _, p := range compOf {
		cell, err := fw.CellOf(p.To)
		if err != nil {
			continue
		}
		versions := fw.CellVersions(cell)
		if len(versions) == 0 {
			continue
		}
		newest := versions[len(versions)-1]
		if newest != p.To && fw.Published(newest) {
			out = append(out, Inconsistency{
				Kind: "stale-hierarchy",
				Detail: fmt.Sprintf("cell version %d uses version %d of cell %q but version %d is published",
					p.From, fw.CellVersionNum(p.To), fw.CellName(cell), fw.CellVersionNum(newest)),
			})
		}
	}
	return out
}
