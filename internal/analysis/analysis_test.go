package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture tree under testdata/src seeds one violation per analyzer
// shape, marked in-source with `// want <analyzer> "<substring>"`
// comments on the line the finding must land on. The harness fails on
// both misses (a want with no finding) and noise (a finding with no
// want). The suppress fixture is excluded here — the //lint:allow
// protocol cannot be annotated with same-line want comments — and is
// asserted semantically by TestSuppression instead.

var fixtureTree struct {
	once sync.Once
	snap *Snapshot
	err  error
}

func loadFixtureTree(t *testing.T) *Snapshot {
	t.Helper()
	fixtureTree.once.Do(func() {
		fixtureTree.snap, fixtureTree.err = LoadSnapshot(filepath.Join("testdata", "src"), "fixture")
	})
	if fixtureTree.err != nil {
		t.Fatalf("loading fixture tree: %v", fixtureTree.err)
	}
	return fixtureTree.snap
}

// expectation is one parsed want comment.
type expectation struct {
	file     string // basename
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

func collectWants(t *testing.T) []*expectation {
	t.Helper()
	var wants []*expectation
	root := filepath.Join("testdata", "src")
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &expectation{
					file:     filepath.Base(p),
					line:     i + 1,
					analyzer: m[1],
					substr:   m[2],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collecting want comments: %v", err)
	}
	return wants
}

func TestFixtures(t *testing.T) {
	snap := loadFixtureTree(t)
	wants := collectWants(t)
	diags := Run(snap, Analyzers())

	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		if base == "suppress.go" {
			continue // asserted by TestSuppression
		}
		matched := false
		for _, w := range wants {
			if w.file == base && w.line == d.Pos.Line && w.analyzer == d.Analyzer &&
				strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected %s finding matching %q, got none",
				w.file, w.line, w.analyzer, w.substr)
		}
	}
}

// TestSuppression pins the //lint:allow protocol against the suppress
// fixture: directives with a reason (same line or line above) suppress;
// a reason-less directive suppresses nothing and is itself reported; a
// directive naming the wrong analyzer suppresses nothing.
func TestSuppression(t *testing.T) {
	snap := loadFixtureTree(t)
	diags := Run(snap, Analyzers())

	byAnalyzer := map[string]int{}
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) != "suppress.go" {
			continue
		}
		byAnalyzer[d.Analyzer]++
		switch d.Analyzer {
		case "lint":
			if !strings.Contains(d.Message, "needs a reason") {
				t.Errorf("lint finding with unexpected message: %s", d)
			}
		case "noerrdrop":
			// reasonlessDiscard and wrongAnalyzer — both unsuppressed.
		default:
			t.Errorf("unexpected analyzer on suppress fixture: %s", d)
		}
	}
	if got := byAnalyzer["lint"]; got != 1 {
		t.Errorf("reason-less directives reported: got %d lint findings, want 1", got)
	}
	if got := byAnalyzer["noerrdrop"]; got != 2 {
		t.Errorf("unsuppressed noerrdrop findings: got %d, want 2 (reasonless + wrong-analyzer); "+
			"fewer means a directive suppressed something it must not", got)
	}
}

// --- real-tree regression tests ----------------------------------------

var repoTree struct {
	once sync.Once
	snap *Snapshot
	err  error
}

func loadRepoTree(t *testing.T) *Snapshot {
	t.Helper()
	repoTree.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repoTree.err = err
			return
		}
		mod, err := ModulePath(root)
		if err != nil {
			repoTree.err = err
			return
		}
		repoTree.snap, repoTree.err = LoadSnapshot(root, mod)
	})
	if repoTree.err != nil {
		t.Fatalf("loading repository tree: %v", repoTree.err)
	}
	return repoTree.snap
}

// TestRepoTreeClean is the tree-hygiene gate in test form: the full
// suite over the real module must produce zero unsuppressed findings.
// It is what `make lint` enforces, kept in `go test` too so a plain test
// run catches a regression without the Makefile.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	for _, d := range Run(loadRepoTree(t), Analyzers()) {
		t.Errorf("unexpected finding on clean tree: %s", d)
	}
}

// TestGuardWriteClassification pins guardwrite's view of the real jcf
// package. Lint only fires on mutating-and-unguarded methods, so a
// classifier that silently stops seeing mutation would keep the tree
// "clean" while letting a deleted guardWrite() call through — this test
// makes that drift loud by asserting known mutating entry points are
// still classified mutating AND guarded.
func TestGuardWriteClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	snap := loadRepoTree(t)
	var jcfPkg *Package
	for _, p := range snap.Pkgs {
		if strings.HasSuffix(p.Path, "/internal/jcf") {
			jcfPkg = p
		}
	}
	if jcfPkg == nil {
		t.Fatal("internal/jcf not found in module tree")
	}
	byName := map[string]GuardReport{}
	guardedMutating := 0
	for _, r := range GuardWriteReport(snap, jcfPkg) {
		byName[r.Method] = r
		if r.Guarded && r.Mutates {
			guardedMutating++
		}
	}
	known := []string{
		"CreateProject", "CreateCell", "CreateCellVersion", "CreateVariant",
		"CreateDesignObject", "StartActivity", "FinishActivity",
		"Reserve", "ReleaseReservation", "Publish", "RegisterFlow",
	}
	for _, name := range known {
		r, ok := byName[name]
		if !ok {
			t.Errorf("exported Framework method %s not found by the classifier", name)
			continue
		}
		if !r.Mutates {
			t.Errorf("guardwrite no longer classifies %s as mutating; deleting its guardWrite() call would go unflagged", name)
		}
		if !r.Guarded {
			t.Errorf("guardwrite no longer sees the guardWrite() call in %s", name)
		}
	}
	if guardedMutating < 15 {
		t.Errorf("only %d exported Framework methods classified guarded-and-mutating; expected at least 15 — the classifier has gone blind", guardedMutating)
	}
}

// TestDeliberateBlockingStaysLoud is the loudness test for the
// suppression protocol: the annotated sleep under repl.Publisher.mu in
// the holdblock fixture (AnnotatedSleep) must still be DETECTED by
// holdblock (RunRaw, which skips suppression filtering), and silenced
// only by its //lint:allow annotation (Run). If the raw finding
// disappears, the analyzer has gone blind to annotated sites; if the
// filtered run reports it, the directive no longer covers its line.
// The real tree must carry no unsuppressed holdblock finding.
func TestDeliberateBlockingStaysLoud(t *testing.T) {
	fixture := loadFixtureTree(t)
	annotated := func(diags []Diagnostic) bool {
		for _, d := range diags {
			if filepath.Base(d.Pos.Filename) == "holdblock.go" &&
				strings.Contains(d.Message, "time.Sleep") &&
				strings.Contains(d.Message, "AnnotatedSleep") {
				return true
			}
		}
		return false
	}
	if !annotated(RunRaw(fixture, []*Analyzer{HoldBlockAnalyzer})) {
		t.Fatal("holdblock no longer detects the annotated sleep in the fixture's AnnotatedSleep; " +
			"a //lint:allow there would be suppressing nothing — the analyzer went blind")
	}
	if annotated(Run(fixture, []*Analyzer{HoldBlockAnalyzer})) {
		t.Fatal("the //lint:allow directive in AnnotatedSleep no longer suppresses its finding")
	}

	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	for _, d := range Run(loadRepoTree(t), []*Analyzer{HoldBlockAnalyzer}) {
		t.Errorf("unsuppressed holdblock finding on clean tree: %s", d)
	}
}
