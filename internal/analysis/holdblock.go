package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// holdblock is the hold-a-lock-while-blocking analyzer: no named lock
// may be held across a transitively-blocking call — network or disk
// I/O, channel send/recv/select without default, time.Sleep,
// WaitGroup.Wait, the store's commit/snapshot entry points from outside
// oms, or Replica.WaitFor. A service thread stalled inside fw.mu stalls
// every designer session behind it; this analyzer makes that latency
// bug a lint failure with the full call path to the blocking site.
//
// Deliberate hold-and-block pairs are declared in the machine-checked
// "Blocking-call allowlist" table of docs/lock-hierarchy.md: a row
// `| lock | identifier | why |` legalizes any blocking path that passes
// through `identifier` — a blocking class (time.Sleep, os-io), a direct
// site (os.WriteFile), or any function label on the witness path
// (oms.Store.Apply). Site-specific exceptions use
// //lint:allow holdblock <reason> instead.
var HoldBlockAnalyzer = &Analyzer{
	Name: "holdblock",
	Doc:  "no transitively-blocking call while holding a named lock (allowlist in docs/lock-hierarchy.md)",
	RunModule: func(pass *ModulePass) {
		runHoldBlock(pass)
	},
}

// parseBlockAllowlist reads the blocking-call allowlist table out of the
// hierarchy doc: the table whose header's first cell is "Lock", rows
// `| lock key | allowed identifier | why |`. Unknown lock keys are
// findings, like the declared-order table's. A missing doc is reported
// by lockgraph already, so it is silent here.
func parseBlockAllowlist(pass *ModulePass, docPath string) map[string]map[string]bool {
	data, err := os.ReadFile(docPath)
	if err != nil {
		return nil
	}
	docPos := func(line int) token.Position {
		return token.Position{Filename: docPath, Line: line, Column: 1}
	}
	allow := map[string]map[string]bool{}
	inTable := false
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) < 2 {
			continue
		}
		for j := range cells {
			cells[j] = strings.Trim(strings.TrimSpace(cells[j]), "`")
		}
		if strings.EqualFold(cells[0], "lock") {
			inTable = true
			continue
		}
		if isSeparatorRow(cells) || !inTable {
			continue
		}
		lock, ident := cells[0], cells[1]
		if !knownLockKey(lock) {
			pass.ReportAt(docPos(i+1),
				"unknown lock %q in the blocking-call allowlist of %s; tracked locks are: %s",
				lock, lockHierarchyDoc, strings.Join(LockKeys(), ", "))
			continue
		}
		if ident == "" {
			pass.ReportAt(docPos(i+1),
				"empty identifier in the blocking-call allowlist of %s", lockHierarchyDoc)
			continue
		}
		if allow[lock] == nil {
			allow[lock] = map[string]bool{}
		}
		allow[lock][ident] = true
	}
	return allow
}

func runHoldBlock(pass *ModulePass) {
	docPath := filepath.Join(pass.Snap.Root, filepath.FromSlash(lockHierarchyDoc))
	allow := parseBlockAllowlist(pass, docPath)

	g := pass.Snap.CallGraph()
	lockSums := g.lockSummaries()
	blockSums := g.blockSummaries()

	// allowed reports whether any identifier associated with the
	// blocking path — its class, its direct-site description, or any
	// function label along the witness chain — is allowlisted for lock.
	allowed := func(lock string, idents []string) bool {
		m := allow[lock]
		if m == nil {
			return false
		}
		for _, id := range idents {
			if m[id] {
				return true
			}
		}
		return false
	}

	seen := map[string]bool{}
	report := func(lock string, pos token.Pos, class, path string) {
		key := fmt.Sprintf("%d|%s", pos, lock)
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos,
			"blocking call (%s) while holding %s; path: %s — move it outside the lock or allow `%s` for %s in %s",
			class, lock, path, class, lock, lockHierarchyDoc)
	}

	for _, node := range g.sortedNodes() {
		held := map[string]int{}
		anyHeld := func() bool {
			for _, n := range held {
				if n > 0 {
					return true
				}
			}
			return false
		}
		forHeld := func(f func(lock string)) {
			locks := make([]string, 0, len(held))
			for l, n := range held {
				if n > 0 {
					locks = append(locks, l)
				}
			}
			sort.Strings(locks)
			for _, l := range locks {
				f(l)
			}
		}
		for _, ev := range node.Events {
			if ev.Deferred {
				// Deferred events run at return, after the body's
				// releases.
				continue
			}
			switch ev.Kind {
			case EvAcquire:
				held[ev.Lock]++
			case EvRelease:
				held[ev.Lock]--
			case EvBlock:
				if !anyHeld() {
					continue
				}
				class := blockClass(ev.Desc)
				path := FuncLabel(node.Fn) + " → " + ev.Desc
				forHeld(func(lock string) {
					if !allowed(lock, []string{class, ev.Desc}) {
						report(lock, ev.Pos, class, path)
					}
				})
			case EvExtCall:
				if !anyHeld() {
					continue
				}
				if class, ok := classifyExtBlocking(ev.Callee); ok {
					desc := FuncLabel(ev.Callee)
					path := FuncLabel(node.Fn) + " → " + desc
					forHeld(func(lock string) {
						if !allowed(lock, []string{class, desc}) {
							report(lock, ev.Pos, class, path)
						}
					})
				}
			case EvCall:
				if anyHeld() {
					if class, ok := classifyModuleBlocking(ev.Callee, node.Pkg.Name); ok {
						desc := FuncLabel(ev.Callee)
						path := FuncLabel(node.Fn) + " → " + desc
						forHeld(func(lock string) {
							if !allowed(lock, []string{class, desc}) {
								report(lock, ev.Pos, class, path)
							}
						})
					}
					if cs := blockSums[ev.Callee]; cs != nil {
						classes := make([]string, 0, len(cs.mayBlock))
						for class := range cs.mayBlock {
							classes = append(classes, class)
						}
						sort.Strings(classes)
						for _, class := range classes {
							labels, path := g.BlockPath(ev.Callee, class)
							idents := append([]string{class}, labels...)
							// The leaf description is the path's tail.
							if i := strings.LastIndex(path, " → "); i >= 0 {
								idents = append(idents, path[i+len(" → "):])
							}
							forHeld(func(lock string) {
								if !allowed(lock, idents) {
									report(lock, ev.Pos, class, FuncLabel(node.Fn)+" → "+path)
								}
							})
						}
					}
				}
				if ls := lockSums[ev.Callee]; ls != nil {
					for k, d := range ls.delta {
						held[k] += d
					}
				}
			}
		}
	}
}
