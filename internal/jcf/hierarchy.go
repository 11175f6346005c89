package jcf

import (
	"fmt"
	"sort"

	"repro/internal/oms"
)

// Design hierarchies in JCF are separated metadata: compOf relationships
// between cell versions, submitted manually via the JCF desktop *before*
// design work starts (sections 2.3 and 3.3). Because JCF 3.0 keeps one
// hierarchy per cell version — not one per view type — non-isomorphic
// hierarchies (schematic differing from layout) cannot be represented and
// are rejected. Release 4.0 lifts both restrictions: SubmitHierarchyTyped
// stores per-view-type hierarchies as HierEdge objects in the database,
// and the procedural interface lets tools pass hierarchy information
// programmatically instead of through the desktop.

// SubmitHierarchy records, via the desktop, that parent (a cell version)
// is composed of child. Cycles are rejected: a cell version cannot
// transitively contain itself.
func (fw *Framework) SubmitHierarchy(parent, child oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	if parent == child {
		return fmt.Errorf("jcf: cell version cannot contain itself")
	}
	if fw.reachable(child, parent) {
		return fmt.Errorf("jcf: hierarchy cycle: child already contains parent")
	}
	return fw.link(fw.rel.compOf, parent, child)
}

// reachable reports whether `to` is transitively contained in `from`.
func (fw *Framework) reachable(from, to oms.OID) bool {
	if from == to {
		return true
	}
	for _, c := range fw.store.Targets(fw.rel.compOf, from) {
		if fw.reachable(c, to) {
			return true
		}
	}
	return false
}

// Children returns the direct compOf children of a cell version.
func (fw *Framework) Children(parent oms.OID) []oms.OID {
	return fw.store.Targets(fw.rel.compOf, parent)
}

// Parents returns the direct compOf parents of a cell version.
func (fw *Framework) Parents(child oms.OID) []oms.OID {
	return fw.store.Sources(fw.rel.compOf, child)
}

// HierarchyClosure returns every cell version transitively contained in
// root (excluding root), sorted.
func (fw *Framework) HierarchyClosure(root oms.OID) []oms.OID {
	seen := map[oms.OID]bool{}
	var walk func(oms.OID)
	walk = func(o oms.OID) {
		for _, c := range fw.store.Targets(fw.rel.compOf, o) {
			if !seen[c] {
				seen[c] = true
				walk(c)
			}
		}
	}
	walk(root)
	out := make([]oms.OID, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SubmitHierarchyTyped records a per-view-type hierarchy edge, allowing
// the schematic and layout hierarchies of the same cell version to differ
// (non-isomorphic hierarchies). JCF 3.0 rejects this with ErrUnsupported —
// "JCF 3.0 does not yet support non-isomorphic hierarchies" (section 2.3);
// Release 4.0 accepts it.
func (fw *Framework) SubmitHierarchyTyped(parent, child oms.OID, viewType string) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	if fw.release < Release40 {
		return fmt.Errorf("%w: non-isomorphic (per-view-type) hierarchies need release 4.0", ErrUnsupported)
	}
	if parent == child {
		return fmt.Errorf("jcf: cell version cannot contain itself")
	}
	// The cycle check, the idempotence check and the edge create run
	// under one write lock, so two concurrent submissions cannot each
	// pass the check and close a cycle together.
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.typedReachable(child, parent, viewType) {
		return fmt.Errorf("jcf: hierarchy cycle in view type %q", viewType)
	}
	for _, c := range fw.typedChildren(parent, viewType) {
		if c == child {
			return nil // idempotent
		}
	}
	b := fw.getBatch()
	defer fw.putBatch(b)
	edge := b.CreateOwned("HierEdge", map[string]oms.Value{"viewType": oms.S(viewType)})
	b.Link(fw.rel.edgeParent, edge, parent)
	b.Link(fw.rel.edgeChild, edge, child)
	_, err := fw.store.Apply(b)
	return err
}

// typedChildren walks the HierEdge objects of parent, in creation order,
// and returns the children of those typed viewType.
func (fw *Framework) typedChildren(parent oms.OID, viewType string) []oms.OID {
	var out []oms.OID
	for _, e := range fw.store.Sources(fw.rel.edgeParent, parent) {
		if fw.store.GetString(e, "viewType") == viewType {
			out = append(out, fw.store.Target(fw.rel.edgeChild, e))
		}
	}
	return out
}

func (fw *Framework) typedReachable(from, to oms.OID, viewType string) bool {
	if from == to {
		return true
	}
	for _, c := range fw.typedChildren(from, viewType) {
		if fw.typedReachable(c, to, viewType) {
			return true
		}
	}
	return false
}

// TypedChildren returns the per-view-type children of a cell version
// (Release 4.0). On release 3.0 it returns ErrUnsupported.
func (fw *Framework) TypedChildren(parent oms.OID, viewType string) ([]oms.OID, error) {
	if fw.release < Release40 {
		return nil, fmt.Errorf("%w: typed hierarchies need release 4.0", ErrUnsupported)
	}
	return fw.typedChildren(parent, viewType), nil
}

// ProceduralHierarchyInterface reports whether tools may submit hierarchy
// information programmatically (the section 3.3 future-work item). In 3.0
// all hierarchy manipulation "must be done manually via the JCF desktop".
func (fw *Framework) ProceduralHierarchyInterface() bool {
	return fw.release >= Release40
}

// SubmitHierarchyProcedural is the tool-facing hierarchy interface. JCF
// 3.0 rejects it (tools cannot reach the desktop); 4.0 forwards to
// SubmitHierarchy.
func (fw *Framework) SubmitHierarchyProcedural(parent, child oms.OID) error {
	if !fw.ProceduralHierarchyInterface() {
		return fmt.Errorf("%w: procedural hierarchy interface needs release 4.0 (use the desktop)", ErrUnsupported)
	}
	return fw.SubmitHierarchy(parent, child)
}

// --- inter-project sharing (release 4.0) -----------------------------------

// ShareCell makes a cell from another project readable in toProject.
// Section 3.1: "Not yet possible in JCF or in the combined framework is
// data sharing between projects. It would be helpful to also provide
// access to cells of other projects." Release 4.0 implements it.
func (fw *Framework) ShareCell(cell, toProject oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	if fw.release < Release40 {
		return fmt.Errorf("%w: inter-project data sharing needs release 4.0", ErrUnsupported)
	}
	owner := fw.store.Sources(fw.rel.has, cell)
	if len(owner) == 0 {
		return fmt.Errorf("%w: cell %d", ErrNotFound, cell)
	}
	if owner[0] == toProject {
		return fmt.Errorf("jcf: cell already belongs to that project")
	}
	return fw.link(fw.rel.shares, toProject, cell) // idempotent
}

// SharedCells returns the cells shared into a project, in OID order
// (Release 4.0).
func (fw *Framework) SharedCells(project oms.OID) ([]oms.OID, error) {
	if fw.release < Release40 {
		return nil, fmt.Errorf("%w: inter-project data sharing needs release 4.0", ErrUnsupported)
	}
	return fw.store.Targets(fw.rel.shares, project), nil
}
