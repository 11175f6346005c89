package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// realTreeMutations each break an invariant that an analyzer owns at a
// named production site. Each must make that analyzer report exactly one
// finding, in the mutated file, matching want: a fixture shows that an
// analyzer catches a shape, and this shows that it still catches it
// where the module relies on it.
var realTreeMutations = []struct {
	name     string
	analyzer *Analyzer
	file     string // module-relative path of the mutated file
	old, new string // old occurs exactly once in file
	want     string // substring of the one expected finding
}{
	{
		name:     "lockAll counts down",
		analyzer: LockOrderAnalyzer,
		file:     "internal/oms/oms.go",
		old:      "for i := range st.stripes {\n\t\tst.stripes[i].mu.Lock()",
		new:      "for i := len(st.stripes) - 1; i >= 0; i-- {\n\t\tst.stripes[i].mu.Lock()",
		want:     "does not count its stripe index up",
	},
	{
		name:     "Exists publishes to the feed",
		analyzer: FeedPublishAnalyzer,
		file:     "internal/oms/oms.go",
		old:      "func (st *Store) Exists(oid OID) bool {\n",
		new:      "func (st *Store) Exists(oid OID) bool {\n\tst.feed.publish(nil)\n",
		want:     "publish called from Exists",
	},
	{
		name:     "Reserve skips guardWrite",
		analyzer: GuardWriteAnalyzer,
		file:     "internal/jcf/workspace.go",
		old:      "func (fw *Framework) Reserve(user string, cv oms.OID) error {\n\tif err := fw.guardWrite(); err != nil {\n\t\treturn err\n\t}\n",
		new:      "func (fw *Framework) Reserve(user string, cv oms.OID) error {\n",
		want:     "Reserve",
	},
	{
		name:     "BindSlaveCell commits its mark in a second Apply",
		analyzer: ApplyAtomicAnalyzer,
		file:     "internal/jcf/project.go",
		old:      "\tb.Set(cv, AttrSlaveCell, oms.S(slaveCell))\n\t_, err := fw.store.Apply(b)\n",
		new: "\tif _, err := fw.store.Apply(b); err != nil {\n\t\treturn err\n\t}\n" +
			"\tmark := oms.NewBatch()\n\tmark.Set(cv, AttrSlaveCell, oms.S(slaveCell))\n\t_, err := fw.store.Apply(mark)\n",
		want: "BindSlaveCell performs ≥2 separate store mutations",
	},
	{
		name:     "the replica compares ErrFeedGap with ==",
		analyzer: ErrFlowAnalyzer,
		file:     "internal/repl/replica.go",
		old:      "if errors.Is(err, oms.ErrFeedGap) {",
		new:      "if err == oms.ErrFeedGap {",
		want:     "sentinel error ErrFeedGap compared with ==",
	},
}

// TestRealTreeMutations applies every row of realTreeMutations to one
// copy of the module's non-test Go sources (the mutated packages and
// what they import) and runs the rows' analyzers over it once:
// type-checking is the test's whole cost, so the rows share one load. Each row names a different analyzer, so a
// mutation meant for one analyzer that trips another shows up as an
// extra finding. TestRepoTreeClean pins the unmutated tree at zero.
func TestRealTreeMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, m := range realTreeMutations {
		dirs = append(dirs, path.Dir(m.file))
	}
	dir := copyModuleSources(t, root, mod, dirs)
	var analyzers []*Analyzer
	for _, m := range realTreeMutations {
		for _, a := range analyzers {
			if a == m.analyzer {
				t.Fatalf("two rows mutate for %s; rows sharing one load need distinct analyzers", a.Name)
			}
		}
		analyzers = append(analyzers, m.analyzer)
		path := filepath.Join(dir, filepath.FromSlash(m.file))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Fatalf("%s: %s holds the mutated text %d times, want 1; update the row", m.name, m.file, n)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := LoadSnapshot(dir, mod)
	if err != nil {
		t.Fatalf("loading the mutated tree: %v", err)
	}
	byAnalyzer := map[string][]Diagnostic{}
	for _, d := range Run(snap, analyzers) {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d)
	}
	for _, m := range realTreeMutations {
		diags := byAnalyzer[m.analyzer.Name]
		if len(diags) != 1 {
			t.Errorf("%s: %s reported %d findings, want exactly 1: %v", m.name, m.analyzer.Name, len(diags), diags)
			continue
		}
		if d := diags[0]; filepath.Base(d.Pos.Filename) != filepath.Base(m.file) || !strings.Contains(d.Message, m.want) {
			t.Errorf("%s: finding %s, want one in %s matching %q", m.name, d, m.file, m.want)
		}
	}
}

// copyModuleSources copies go.mod and the non-test .go files of the
// packages in dirs (module-relative) and of every module package they
// import, keeping the layout. The rows' analyzers read no other package:
// lockorder and feedpublish look only at oms, guardwrite and applyatomic
// follow jcf.Framework methods into what jcf imports, and errflow reads
// the comparisons in each loaded package.
func copyModuleSources(t *testing.T, root, mod string, dirs []string) string {
	t.Helper()
	dir := t.TempDir()
	copyFile := func(rel string) []byte {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return data
	}
	copyFile("go.mod")
	seen := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		entries, err := os.ReadDir(filepath.Join(root, pkg))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			rel := filepath.Join(pkg, name)
			f, err := parser.ParseFile(token.NewFileSet(), rel, copyFile(rel), parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, mod+"/") {
					visit(filepath.FromSlash(strings.TrimPrefix(path, mod+"/")))
				}
			}
		}
	}
	for _, d := range dirs {
		visit(filepath.FromSlash(d))
	}
	return dir
}
