package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// lockgraph is the whole-module lock-hierarchy analyzer. Using the
// shared call graph it extracts every "acquire lock B while holding
// lock A" edge across packages for the named locks (jcf.Framework.mu,
// jcf.Framework.numMu, the oms stripe set as one level, the feed mutex,
// the repl publisher/replica mutexes, itc.Bus.mu) and checks the edge
// set against the partial order declared in docs/lock-hierarchy.md.
// Any observed edge outside the declared order's transitive closure is
// reported with its full witness call path, as is any cycle — the doc
// is machine-checked, not aspirational, and deleting a declared edge
// fails the lint run with the code path that still takes it.
var LockGraphAnalyzer = &Analyzer{
	Name: "lockgraph",
	Doc:  "cross-package lock acquisition order must match docs/lock-hierarchy.md and be cycle-free",
	RunModule: func(pass *ModulePass) {
		runLockGraph(pass)
	},
}

// lockHierarchyDoc is the declared-order table, relative to module root.
const lockHierarchyDoc = "docs/lock-hierarchy.md"

// lockEdge is one observed "acquired to while holding from" edge with
// the witness that found it first (nodes are visited in sorted order,
// so the witness is deterministic).
type lockEdge struct {
	from, to string
	pos      token.Pos
	path     string // human-readable call path to the acquisition
}

func runLockGraph(pass *ModulePass) {
	docPath := filepath.Join(pass.Snap.Root, filepath.FromSlash(lockHierarchyDoc))
	declared := parseDeclaredOrder(pass, docPath)
	allowed := transitiveClosure(declared)

	g := pass.Snap.CallGraph()
	sums := g.lockSummaries()

	// Visit functions in sorted order so each edge's witness is stable.
	fns := make([]*types.Func, 0, len(g.Nodes))
	for fn := range g.Nodes {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return FuncLabel(fns[i]) < FuncLabel(fns[j]) })

	edges := map[[2]string]*lockEdge{}
	addEdge := func(from, to string, pos token.Pos, path string) {
		if from == to {
			if from == stripesKey {
				// Intra-stripe ordering (multiple stripes of the same
				// set) is lockorder's job: the sorted helpers.
				return
			}
			pass.Reportf(pos, "acquires %s while already holding it (self-deadlock); path: %s", to, path)
			return
		}
		key := [2]string{from, to}
		if _, ok := edges[key]; !ok {
			edges[key] = &lockEdge{from: from, to: to, pos: pos, path: path}
		}
	}

	for _, fn := range fns {
		node := g.Nodes[fn]
		held := map[string]int{}
		for _, ev := range node.Events {
			if ev.Deferred {
				// Deferred events run at return, after the body's
				// acquisition sequence; they do not interleave with it.
				continue
			}
			switch ev.Kind {
			case EvAcquire:
				for a, n := range held {
					if n > 0 {
						addEdge(a, ev.Lock, ev.Pos, FuncLabel(fn))
					}
				}
				held[ev.Lock]++
			case EvRelease:
				held[ev.Lock]--
			case EvCall:
				cs := sums[ev.Callee]
				if cs == nil {
					continue
				}
				for a, n := range held {
					if n <= 0 {
						continue
					}
					for b := range cs.mayAcquire {
						addEdge(a, b, ev.Pos, FuncLabel(fn)+" → "+g.AcquirePath(ev.Callee, b))
					}
				}
				for k, d := range cs.delta {
					held[k] += d
				}
			}
		}
	}

	// Every observed edge must be inside the declared order's
	// transitive closure.
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e := edges[k]
		if !allowed[k] {
			pass.Reportf(e.pos,
				"acquires %s while holding %s: edge not declared in %s; path: %s",
				e.to, e.from, lockHierarchyDoc, e.path)
		}
	}

	reportCycles(pass, edges)
}

// parseDeclaredOrder reads the markdown table out of the hierarchy doc:
// rows of the form `| held | acquired | why |`, lock names in
// backticks. Unknown lock names and a missing doc are findings — the
// doc and the registry must stay in step.
func parseDeclaredOrder(pass *ModulePass, docPath string) map[[2]string]bool {
	docPos := func(line int) token.Position {
		return token.Position{Filename: docPath, Line: line, Column: 1}
	}
	data, err := os.ReadFile(docPath)
	if err != nil {
		pass.ReportAt(docPos(1),
			"cannot read the declared lock order (%s): %v", lockHierarchyDoc, err)
		return nil
	}
	declared := map[[2]string]bool{}
	// Only the table whose header's first cell is "Held" (or
	// "While holding") declares edges; the doc may carry other tables
	// (e.g. a lock inventory) that must not be parsed as rows.
	inOrderTable := false
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			inOrderTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) < 2 {
			continue
		}
		for j := range cells {
			cells[j] = strings.Trim(strings.TrimSpace(cells[j]), "`")
		}
		if isOrderHeader(cells) {
			inOrderTable = true
			continue
		}
		if isSeparatorRow(cells) || !inOrderTable {
			continue
		}
		from, to := cells[0], cells[1]
		bad := false
		for _, k := range []string{from, to} {
			if !knownLockKey(k) {
				pass.ReportAt(docPos(i+1),
					"unknown lock %q in %s; tracked locks are: %s",
					k, lockHierarchyDoc, strings.Join(LockKeys(), ", "))
				bad = true
			}
		}
		if bad {
			continue
		}
		if from == to {
			pass.ReportAt(docPos(i+1), "self-edge %s → %s declared in %s", from, to, lockHierarchyDoc)
			continue
		}
		declared[[2]string{from, to}] = true
	}
	// The declared order must itself be a partial order: closure
	// containing both a→b and b→a means the doc declares a cycle.
	closure := transitiveClosure(declared)
	for e := range closure {
		if e[0] < e[1] && closure[[2]string{e[1], e[0]}] {
			pass.ReportAt(docPos(1),
				"declared lock order contains a cycle between %s and %s", e[0], e[1])
		}
	}
	return declared
}

// isSeparatorRow recognizes the |---|---| divider under a table header.
func isSeparatorRow(cells []string) bool {
	for _, c := range cells {
		if c != "" && strings.Trim(c, "-: ") != "" {
			return false
		}
	}
	return true
}

// isOrderHeader recognizes the declared-order table's header row.
func isOrderHeader(cells []string) bool {
	return strings.EqualFold(cells[0], "held") || strings.EqualFold(cells[0], "while holding")
}

// transitiveClosure closes the declared edge set: declaring a→b and
// b→c allows a→c without spelling every composite out.
func transitiveClosure(edges map[[2]string]bool) map[[2]string]bool {
	out := map[[2]string]bool{}
	for e := range edges {
		out[e] = true
	}
	keys := LockKeys()
	for _, k := range keys {
		for _, i := range keys {
			for _, j := range keys {
				if out[[2]string{i, k}] && out[[2]string{k, j}] {
					out[[2]string{i, j}] = true
				}
			}
		}
	}
	return out
}

// reportCycles finds every elementary cycle in the observed edge set
// and reports each once, anchored at an undeclared edge's acquisition
// site when the cycle has one (it must, if the declared order is
// acyclic), with the witness path for every hop.
func reportCycles(pass *ModulePass, edges map[[2]string]*lockEdge) {
	adj := map[string][]string{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for _, next := range adj {
		sort.Strings(next)
	}
	starts := make([]string, 0, len(adj))
	for k := range adj {
		starts = append(starts, k)
	}
	sort.Strings(starts)

	seen := map[string]bool{}
	var stack []string
	onStack := map[string]bool{}
	var dfs func(n string)
	emit := func(cycle []string) {
		// Canonicalize: rotate so the smallest lock leads, and dedupe.
		min := 0
		for i := range cycle {
			if cycle[i] < cycle[min] {
				min = i
			}
		}
		rot := append(append([]string{}, cycle[min:]...), cycle[:min]...)
		sig := strings.Join(rot, "→")
		if seen[sig] {
			return
		}
		seen[sig] = true
		var hops []string
		for i := range rot {
			e := edges[[2]string{rot[i], rot[(i+1)%len(rot)]}]
			hops = append(hops, fmt.Sprintf("%s→%s via %s", e.from, e.to, e.path))
		}
		// Anchor at the closing hop back to the smallest lock: with the
		// declared order acyclic, that edge is the anomalous one in the
		// common two-lock case.
		anchor := edges[[2]string{rot[len(rot)-1], rot[0]}]
		pass.Reportf(anchor.pos, "lock-order cycle: %s → %s; %s",
			strings.Join(rot, " → "), rot[0], strings.Join(hops, "; "))
	}
	dfs = func(n string) {
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range adj[n] {
			if onStack[m] {
				for i, s := range stack {
					if s == m {
						emit(append([]string{}, stack[i:]...))
						break
					}
				}
				continue
			}
			dfs(m)
		}
		stack = stack[:len(stack)-1]
		onStack[n] = false
	}
	for _, s := range starts {
		dfs(s)
	}
}
