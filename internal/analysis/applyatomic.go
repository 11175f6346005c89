package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// applyatomic machine-checks PR 3's atomicity convention: an exported
// jcf.Framework method whose call tree performs two or more store
// mutations must funnel them through ONE atomic group — a Batch handed
// to Store.Apply. Sequential Apply calls from a desktop entry point
// reopen exactly the check-then-act windows batching closes: a
// concurrent designer can observe (or collide with) the state between
// step one and step two.
//
// The count runs over the shared cross-package call graph, so mutations
// buried in helpers — in jcf or out of it — are charged to the exported
// method that reaches them. A call inside a loop counts twice (it can
// execute twice); a call to one of the store mutators (storeMutators,
// shared with guardwrite) counts as one group however many ops the
// batch carries.
var ApplyAtomicAnalyzer = &Analyzer{
	Name:      "applyatomic",
	Doc:       "exported jcf.Framework methods performing ≥2 store mutations must batch them through one Store.Apply",
	RunModule: runApplyAtomic,
}

// mutWitness is one concrete mutation group a call tree reaches.
type mutWitness struct {
	pos  token.Pos
	path string // caller → ... → Store.<op>
}

// mutInfo summarizes one function: how many separate mutation groups
// its synchronous call tree performs (saturated at 2 — the analyzer
// only needs "one" vs "more than one") with up to two witnesses.
type mutInfo struct {
	groups    int
	witnesses []mutWitness
}

func (m *mutInfo) add(n int, ws ...mutWitness) {
	m.groups += n
	if m.groups > 2 {
		m.groups = 2
	}
	for _, w := range ws {
		if len(m.witnesses) < 2 {
			m.witnesses = append(m.witnesses, w)
		}
	}
}

func runApplyAtomic(pass *ModulePass) {
	g := pass.Snap.CallGraph()
	memo := map[*types.Func]*mutInfo{}
	onStack := map[*types.Func]bool{}

	var mutOf func(fn *types.Func) *mutInfo
	mutOf = func(fn *types.Func) *mutInfo {
		if m, ok := memo[fn]; ok {
			return m
		}
		if onStack[fn] {
			return &mutInfo{} // recursion: charge the cycle once, at the top
		}
		onStack[fn] = true
		defer delete(onStack, fn)
		m := &mutInfo{}
		node := g.Nodes[fn]
		if node != nil {
			for _, ev := range node.Events {
				if ev.Kind != EvCall {
					continue
				}
				mult := 1
				if ev.InLoop {
					mult = 2
				}
				callee := ev.Callee
				switch {
				case storeMutators[callee.Name()] && recvNamedIs(callee, "Store"):
					m.add(mult, mutWitness{pos: ev.Pos, path: FuncLabel(fn) + " → Store." + callee.Name()})
				default:
					sub := mutOf(callee)
					if sub.groups == 0 {
						continue
					}
					var ws []mutWitness
					for _, w := range sub.witnesses {
						ws = append(ws, mutWitness{pos: ev.Pos, path: FuncLabel(fn) + " → " + w.path})
					}
					m.add(sub.groups*mult, ws...)
				}
			}
		}
		memo[fn] = m
		return m
	}

	fns := make([]*types.Func, 0, len(g.Nodes))
	for fn := range g.Nodes {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return FuncLabel(fns[i]) < FuncLabel(fns[j]) })

	for _, fn := range fns {
		node := g.Nodes[fn]
		f := &guardFacts{decl: node.Decl, pkg: node.Pkg}
		if !isExportedFrameworkMethod(fn, f) {
			continue
		}
		m := mutOf(fn)
		if m.groups < 2 {
			continue
		}
		var sites []string
		for _, w := range m.witnesses {
			p := pass.Snap.Fset.Position(w.pos)
			sites = append(sites, fmt.Sprintf("%s (%s:%d)", w.path, filepath.Base(p.Filename), p.Line))
		}
		pass.Reportf(node.Decl.Name.Pos(),
			"%s performs ≥2 separate store mutations — e.g. %s — without one Batch+Store.Apply; "+
				"a concurrent designer can observe the state between them",
			fn.Name(), joinSites(sites))
	}
}

func joinSites(sites []string) string {
	switch len(sites) {
	case 0:
		return "(no witness)"
	case 1:
		return sites[0]
	default:
		return sites[0] + " and " + sites[1]
	}
}
