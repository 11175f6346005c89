package otod

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/oms"
)

func smallModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel("test")
	if err := m.AddEntity(Entity{Name: "A", Region: "r1", Attrs: []oms.AttrDef{{Name: "name", Kind: oms.KindString}}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddEntity(Entity{Name: "B", Region: "r2"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRel(Relationship{Name: "ab", From: "A", To: "B", FromCard: oms.One, ToCard: oms.Many}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelBasics(t *testing.T) {
	m := smallModel(t)
	if m.EntityCount() != 2 || m.RelCount() != 1 {
		t.Fatalf("counts = %d/%d", m.EntityCount(), m.RelCount())
	}
	if m.Entity("A") == nil || m.Entity("Z") != nil {
		t.Fatal("Entity lookup broken")
	}
	if got := m.Regions(); len(got) != 2 || got[0] != "r1" || got[1] != "r2" {
		t.Fatalf("Regions = %v", got)
	}
	ents := m.Entities()
	if len(ents) != 2 || ents[0].Name != "A" {
		t.Fatalf("Entities = %v", ents)
	}
}

func TestModelErrors(t *testing.T) {
	m := smallModel(t)
	if err := m.AddEntity(Entity{Name: ""}); err == nil {
		t.Fatal("empty entity accepted")
	}
	if err := m.AddEntity(Entity{Name: "A"}); err == nil {
		t.Fatal("duplicate entity accepted")
	}
	if err := m.AddRel(Relationship{Name: ""}); err == nil {
		t.Fatal("empty relationship accepted")
	}
	if err := m.AddRel(Relationship{Name: "x", From: "A", To: "Z"}); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if err := m.AddRel(Relationship{Name: "x", From: "Z", To: "A"}); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if err := m.AddRel(Relationship{Name: "ab", From: "A", To: "B"}); err == nil {
		t.Fatal("duplicate relationship accepted")
	}
}

func TestSchemaTranslation(t *testing.T) {
	m := smallModel(t)
	// Add a second rel reusing the name "ab" with different endpoints, as
	// OTO-D diagrams do with labels like "precedes".
	if err := m.AddEntity(Entity{Name: "C"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRel(Relationship{Name: "ab", From: "B", To: "C"}); err != nil {
		t.Fatal(err)
	}
	s, err := m.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if s.Class("A") == nil || s.Class("B") == nil || s.Class("C") == nil {
		t.Fatal("classes missing from schema")
	}
	if s.Rel("ab") == nil {
		t.Fatal("first ab missing")
	}
	if s.Rel("ab:B->C") == nil {
		t.Fatalf("qualified second ab missing; rels = %v", s.Rels())
	}
	if got := m.SchemaRelName(Relationship{Name: "ab", From: "A", To: "B"}); got != "ab" {
		t.Fatalf("SchemaRelName first = %q", got)
	}
	if got := m.SchemaRelName(Relationship{Name: "ab", From: "B", To: "C"}); got != "ab:B->C" {
		t.Fatalf("SchemaRelName second = %q", got)
	}
}

func TestRenderAndDOT(t *testing.T) {
	m := smallModel(t)
	out := m.Render()
	for _, want := range []string{"test", "entities: 2", "[r1]", "[r2]", "ab", "A (1) -> B (N)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	dot := m.DOT()
	for _, want := range []string{"digraph", "cluster_0", `"A" -> "B"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestValidate(t *testing.T) {
	m := smallModel(t)
	schema, err := m.Schema()
	if err != nil {
		t.Fatal(err)
	}
	st := oms.NewStore(schema)
	b := oms.NewBatch()
	b.Create("A", map[string]oms.Value{"name": oms.S("x")})
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if probs := m.Validate(st); len(probs) != 0 {
		t.Fatalf("valid store flagged: %v", probs)
	}
	// A store whose schema has extra classes produces validation problems.
	s2 := oms.NewSchema()
	if err := s2.AddClass("Other"); err != nil {
		t.Fatal(err)
	}
	st2 := oms.NewStore(s2)
	b = oms.NewBatch()
	b.Create("Other", nil)
	if _, err := st2.Apply(b); err != nil {
		t.Fatal(err)
	}
	if probs := m.Validate(st2); len(probs) != 1 {
		t.Fatalf("foreign class not flagged: %v", probs)
	}
}

// --- the paper's figures ------------------------------------------------

func TestJCFModelFigure1(t *testing.T) {
	m := JCFModel()
	// The figure's regions must all be present.
	wantRegions := []string{"Activities", "Configurations", "Design data", "Flows", "Project structure", "Team", "Variants"}
	got := m.Regions()
	if len(got) != len(wantRegions) {
		t.Fatalf("Regions = %v, want %v", got, wantRegions)
	}
	for i := range got {
		if got[i] != wantRegions[i] {
			t.Fatalf("Regions = %v, want %v", got, wantRegions)
		}
	}
	// Key entities named in the paper's text and Table 1.
	for _, e := range []string{"Project", "Cell", "CellVersion", "Variant", "DesignObject",
		"DesignObjectVersion", "ViewType", "Flow", "Activity", "ActivityProxy", "Tool",
		"Team", "User", "Configuration", "ConfigVersion", "Part", "DirectoryPath", "ActiveExecVersion"} {
		if m.Entity(e) == nil {
			t.Errorf("Figure 1 missing entity %q", e)
		}
	}
	// Key relationships the paper names: equivalent/derived versioning,
	// compOf hierarchy, precedes, uses, needs/creates.
	names := map[string]bool{}
	for _, r := range m.Relationships() {
		names[r.Name] = true
	}
	for _, r := range []string{"equivalent", "derived", "compOf", "precedes", "uses", "needs", "creates", "hasVariant", "hasVersion"} {
		if !names[r] {
			t.Errorf("Figure 1 missing relationship %q", r)
		}
	}
	// The model must translate to a valid schema.
	if _, err := m.Schema(); err != nil {
		t.Fatalf("Schema: %v", err)
	}
}

func TestFMCADModelFigure2(t *testing.T) {
	m := FMCADModel()
	for _, e := range []string{"Library", "Cell", "View", "Viewtype", "Cellview", "CellviewVersion",
		"Config", "CheckOutStatus", "LockedFlag", "Property",
		"Layout", "Schema", "Symbol", "LayoutVersion", "SchemaVersion", "SymbolVersion", "SymbolInSchemaVersion"} {
		if m.Entity(e) == nil {
			t.Errorf("Figure 2 missing entity %q", e)
		}
	}
	names := map[string]bool{}
	for _, r := range m.Relationships() {
		names[r.Name] = true
	}
	for _, r := range []string{"contains", "hasCellview", "ofView", "ofViewtype", "hasVersion",
		"checkedOut", "lock", "cvvInConfig", "configInConfig", "hasProperty", "isa", "instantiates"} {
		if !names[r] {
			t.Errorf("Figure 2 missing relationship %q", r)
		}
	}
	if _, err := m.Schema(); err != nil {
		t.Fatalf("Schema: %v", err)
	}
	// The ".Project" / "=ViewSubType" / ".File" annotations are attributes.
	lib := m.Entity("Library")
	foundDir := false
	for _, a := range lib.Attrs {
		if a.Name == "directory" {
			foundDir = true
		}
	}
	if !foundDir {
		t.Error("Library lacks directory attribute (.Project annotation)")
	}
}

func TestFiguresRenderDeterministic(t *testing.T) {
	a, b := JCFModel().Render(), JCFModel().Render()
	if a != b {
		t.Error("JCF render not deterministic")
	}
	c, d := FMCADModel().DOT(), FMCADModel().DOT()
	if c != d {
		t.Error("FMCAD DOT not deterministic")
	}
}

// Property: every relationship returned by Relationships() survives
// SchemaRelName + Schema translation (the schema has that relationship).
func TestPropertySchemaRelNames(t *testing.T) {
	for _, m := range []*Model{JCFModel(), FMCADModel()} {
		s, err := m.Schema()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range m.Relationships() {
			if s.Rel(m.SchemaRelName(r)) == nil {
				t.Errorf("%s: relationship %s (%s->%s) not resolvable in schema",
					m.Title, r.Name, r.From, r.To)
			}
		}
	}
}

// Property: models with arbitrary entity names remain internally consistent.
func TestPropertyArbitraryEntities(t *testing.T) {
	f := func(raw []string) bool {
		m := NewModel("prop")
		added := map[string]bool{}
		for _, n := range raw {
			if n == "" || added[n] {
				continue
			}
			if err := m.AddEntity(Entity{Name: n}); err != nil {
				return false
			}
			added[n] = true
		}
		return m.EntityCount() == len(added)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
