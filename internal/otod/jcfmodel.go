package otod

import "repro/internal/oms"

// JCFModel returns the information architecture of JCF 3.0 as shown in
// Figure 1 of the paper ("Information architecture of JCF 3.0 (in OTO-D
// format)"). The figure groups entities into the dashed regions Team,
// Flows, Activities, Project structure, Variants, Configurations and
// Design data; the regions and the edges below reconstruct the figure.
//
// JCF distinguishes resources (metadata fully under framework control:
// teams, flows, activities, tools, view types) from project data (cells,
// cell versions, variants, design objects and their versions,
// configurations).
func JCFModel() *Model {
	m := NewModel("Figure 1: Information architecture of JCF 3.0 (OTO-D)")

	must := func(err error) {
		if err != nil {
			panic(err) // model is a package-level constant; an error is a programming bug
		}
	}

	name := oms.AttrDef{Name: "name", Kind: oms.KindString, Required: true}

	// Team region (resources).
	must(m.AddEntity(Entity{Name: "User", Region: "Team", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "Team", Region: "Team", Attrs: []oms.AttrDef{name}}))

	// Flows region (resources / metadata). spec holds the frozen flow
	// (activities and precedence) as JSON, so the flow structure itself
	// is database content like every other resource.
	must(m.AddEntity(Entity{Name: "Flow", Region: "Flows", Attrs: []oms.AttrDef{
		name,
		{Name: "spec", Kind: oms.KindString},
	}}))

	// Activities region (resources / metadata).
	must(m.AddEntity(Entity{Name: "Activity", Region: "Activities", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "ActivityProxy", Region: "Activities", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "Tool", Region: "Activities", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "ViewType", Region: "Activities", Attrs: []oms.AttrDef{name}}))

	// Project structure region.
	must(m.AddEntity(Entity{Name: "Project", Region: "Project structure", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "Cell", Region: "Project structure", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "CellVersion", Region: "Project structure", Attrs: []oms.AttrDef{
		{Name: "num", Kind: oms.KindInt, Required: true},
		{Name: "published", Kind: oms.KindBool},
		// reservedBy mirrors the workspace reservation into the database
		// ("" when free) so reservation traffic rides the change feed and
		// reaches tools via the feed-driven notification bridge.
		{Name: "reservedBy", Kind: oms.KindString},
		// slaveCell names the slave-framework cell a coupling bound this
		// version to (Table 1: CellVersion -> Cell); absent when unbound.
		{Name: "slaveCell", Kind: oms.KindString},
	}}))
	must(m.AddEntity(Entity{Name: "Part", Region: "Project structure", Attrs: []oms.AttrDef{name}}))
	// HierEdge is one per-view-type hierarchy edge (the non-isomorphic
	// hierarchies of Release 4.0): a relationship cannot carry the view
	// type, so the edge is an object linked to its parent and child.
	must(m.AddEntity(Entity{Name: "HierEdge", Region: "Project structure", Attrs: []oms.AttrDef{
		{Name: "viewType", Kind: oms.KindString, Required: true},
	}}))

	// Variants region.
	must(m.AddEntity(Entity{Name: "Variant", Region: "Variants", Attrs: []oms.AttrDef{
		{Name: "num", Kind: oms.KindInt, Required: true},
	}}))
	must(m.AddEntity(Entity{Name: "ActiveExecVersion", Region: "Variants", Attrs: []oms.AttrDef{
		{Name: "state", Kind: oms.KindString},
	}}))

	// Configurations region.
	must(m.AddEntity(Entity{Name: "Configuration", Region: "Configurations", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "ConfigVersion", Region: "Configurations", Attrs: []oms.AttrDef{
		{Name: "num", Kind: oms.KindInt, Required: true},
	}}))

	// Design data region.
	must(m.AddEntity(Entity{Name: "DesignObject", Region: "Design data", Attrs: []oms.AttrDef{name}}))
	must(m.AddEntity(Entity{Name: "DesignObjectVersion", Region: "Design data", Attrs: []oms.AttrDef{
		{Name: "num", Kind: oms.KindInt, Required: true},
		{Name: "data", Kind: oms.KindBlob},
	}}))
	must(m.AddEntity(Entity{Name: "DirectoryPath", Region: "Design data", Attrs: []oms.AttrDef{
		{Name: "path", Kind: oms.KindString, Required: true},
	}}))

	// Team membership and project support.
	must(m.AddRel(Relationship{Name: "memberOf", From: "User", To: "Team", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "supports", From: "Team", To: "Project", FromCard: oms.Many, ToCard: oms.Many}))

	// Project structure: Project has Cells, Cells have CellVersions,
	// CellVersions form the CompOf hierarchy, Parts decompose CellVersions.
	must(m.AddRel(Relationship{Name: "has", From: "Project", To: "Cell", FromCard: oms.One, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "hasVersion", From: "Cell", To: "CellVersion", FromCard: oms.One, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "compOf", From: "CellVersion", To: "CellVersion", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "partOf", From: "Part", To: "CellVersion", FromCard: oms.Many, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "edgeParent", From: "HierEdge", To: "CellVersion", FromCard: oms.Many, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "edgeChild", From: "HierEdge", To: "CellVersion", FromCard: oms.Many, ToCard: oms.One}))
	// Release 4.0 inter-project sharing: cells readable from projects
	// other than the one that has them.
	must(m.AddRel(Relationship{Name: "shares", From: "Project", To: "Cell", FromCard: oms.Many, ToCard: oms.Many}))

	// Each cell version carries its (possibly modified) flow and team.
	must(m.AddRel(Relationship{Name: "attachedFlow", From: "CellVersion", To: "Flow", FromCard: oms.Many, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "attachedTeam", From: "CellVersion", To: "Team", FromCard: oms.Many, ToCard: oms.One}))

	// Variants: second versioning mechanism inside a cell version.
	must(m.AddRel(Relationship{Name: "hasVariant", From: "CellVersion", To: "Variant", FromCard: oms.One, ToCard: oms.Many}))
	// A variant has one predecessor but may branch into many successors.
	must(m.AddRel(Relationship{Name: "precedes", From: "Variant", To: "Variant", FromCard: oms.One, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "activeExec", From: "Variant", To: "ActiveExecVersion", FromCard: oms.One, ToCard: oms.Many}))

	// Flows are built from activities; proxies stand for activities in a
	// flow instance; activities are performed by tools on view types.
	must(m.AddRel(Relationship{Name: "contains", From: "Flow", To: "ActivityProxy", FromCard: oms.One, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "proxies", From: "ActivityProxy", To: "Activity", FromCard: oms.Many, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "precedes", From: "ActivityProxy", To: "ActivityProxy", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "performedBy", From: "Activity", To: "Tool", FromCard: oms.Many, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "needs", From: "Activity", To: "ViewType", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "creates", From: "Activity", To: "ViewType", FromCard: oms.Many, ToCard: oms.Many}))

	// Design data: design objects under a variant, versioned, typed,
	// with equivalence/derivation relations and file-system paths.
	must(m.AddRel(Relationship{Name: "uses", From: "Variant", To: "DesignObject", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "hasVersion", From: "DesignObject", To: "DesignObjectVersion", FromCard: oms.One, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "ofViewType", From: "DesignObject", To: "ViewType", FromCard: oms.Many, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "equivalent", From: "DesignObjectVersion", To: "DesignObjectVersion", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "derived", From: "DesignObjectVersion", To: "DesignObjectVersion", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "storedAt", From: "DesignObjectVersion", To: "DirectoryPath", FromCard: oms.One, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "needsOfVersion", From: "ActiveExecVersion", To: "DesignObjectVersion", FromCard: oms.Many, ToCard: oms.Many}))

	// Configurations: versioned collections with entries per cell version.
	must(m.AddRel(Relationship{Name: "hasVersion", From: "Configuration", To: "ConfigVersion", FromCard: oms.One, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "precedes", From: "ConfigVersion", To: "ConfigVersion", FromCard: oms.One, ToCard: oms.One}))
	must(m.AddRel(Relationship{Name: "hasEntry", From: "ConfigVersion", To: "DesignObjectVersion", FromCard: oms.Many, ToCard: oms.Many}))
	must(m.AddRel(Relationship{Name: "configures", From: "Configuration", To: "CellVersion", FromCard: oms.Many, ToCard: oms.One}))

	return m
}
