package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The cross-package call graph: the shared infrastructure under the
// whole-module analyzers. PR 6's analyzers each walked one package at a
// time, which made every cross-package convention — jcf holding fw.mu
// while calling into oms stripe locks, repl holding its own mutexes
// around Store.ApplyReplicated — invisible. The graph is built ONCE per
// Snapshot (lazily, see Snapshot.CallGraph) and records, per declared
// function, a source-order timeline of the events the analyzers care
// about: acquisitions and releases of the module's NAMED locks, and
// statically-resolved calls to other module functions.
//
// Static approximations, chosen to match how the tree is written:
//
//   - Function literals launched by `go` are excluded from the
//     synchronous timeline (a goroutine does not inherit its spawner's
//     held locks) but their calls are kept separately (AsyncCalls) for
//     reachability questions like guardwrite's.
//   - Events inside `defer` statements and deferred literals are marked
//     Deferred: they run at return, so they never release a lock
//     mid-body and never acquire one while the body's locks are held in
//     a way source order can see.
//   - Other function literals (IIFEs, callbacks built and passed on the
//     spot) are walked inline — conservative for callbacks that the
//     callee runs later, but that is the safe direction for lock edges.

// CallGraph holds one node per function or method declared anywhere in
// the module, with lazily-computed whole-graph summaries.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode

	lockSums  map[*types.Func]*lockSummary
	blockSums map[*types.Func]*blockSummary
	relParams map[*types.Func]map[int]bool
	sorted    []*FuncNode
}

// FuncNode is one declared function with its analyzer-relevant timeline.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Events is the body's source-order timeline (lock ops and calls),
	// excluding `go`-launched literals.
	Events []Event
	// AsyncCalls are module-internal calls made inside `go`-launched
	// literals — reachable, but on another goroutine.
	AsyncCalls []CallRef
}

// EventKind discriminates Event.
type EventKind int

// Event kinds.
const (
	EvAcquire EventKind = iota // a named lock Lock/RLock
	EvRelease                  // a named lock Unlock/RUnlock
	EvCall                     // a call to a module-declared function
	EvExtCall                  // a resolved call to a function declared OUTSIDE the module
	EvBlock                    // a directly-blocking channel primitive (send/recv/select)
)

// Event is one timeline entry.
type Event struct {
	Kind     EventKind
	Lock     string      // EvAcquire/EvRelease: the named-lock key
	Callee   *types.Func // EvCall/EvExtCall
	Desc     string      // EvBlock: "chan-send", "chan-recv", "chan-recv (range)", "select"
	Pos      token.Pos
	Deferred bool // inside a defer statement or deferred literal
	InLoop   bool // lexically inside a for/range statement
}

// CallRef is a call with its position (AsyncCalls entries).
type CallRef struct {
	Callee *types.Func
	Pos    token.Pos
}

// FuncLabel renders a function as pkg.Recv.Name or pkg.Name for
// human-readable witness paths.
func FuncLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := recvNamed(fn); recv != nil {
		return pkg + recv.Obj().Name() + "." + fn.Name()
	}
	return pkg + fn.Name()
}

// --- named locks -------------------------------------------------------

// lockSpec names one mutex the module-wide lock hierarchy tracks: a
// mutex-typed field, identified by (package name, owner type, field).
// The 32 OMS stripe mutexes count as ONE level ("oms.stripes"): their
// internal ordering is the lockorder analyzer's business; lockgraph
// cares about what is acquired around the stripe set as a whole.
type lockSpec struct {
	pkgName, typeName, fieldName string
	key                          string
}

// namedLockSpecs is the registry of tracked locks. docs/lock-hierarchy.md
// declares the partial order over exactly these keys.
var namedLockSpecs = []lockSpec{
	{"jcf", "Framework", "mu", "jcf.Framework.mu"},
	{"jcf", "Framework", "numMu", "jcf.Framework.numMu"},
	{"jcf", "Framework", "upMu", "jcf.Framework.upMu"},
	{"oms", "stripe", "mu", "oms.stripes"},
	{"oms", "feed", "mu", "oms.feed.mu"},
	{"blobstore", "Store", "mu", "blobstore.Store.mu"},
	{"blobstore", "Store", "sweepMu", "blobstore.Store.sweepMu"},
	{"itc", "Bus", "mu", "itc.Bus.mu"},
	{"repl", "Publisher", "mu", "repl.Publisher.mu"},
	{"repl", "Replica", "mu", "repl.Replica.mu"},
	{"obs", "Registry", "mu", "obs.Registry.mu"},
}

// stripesKey is the collapsed stripe level.
const stripesKey = "oms.stripes"

// knownLockKey reports whether key names a registered lock.
func knownLockKey(key string) bool {
	for _, s := range namedLockSpecs {
		if s.key == key {
			return true
		}
	}
	return false
}

// LockKeys returns the registered lock keys, sorted.
func LockKeys() []string {
	out := make([]string, 0, len(namedLockSpecs))
	for _, s := range namedLockSpecs {
		out = append(out, s.key)
	}
	sort.Strings(out)
	return out
}

// classifyLockOp matches x.<field>.Lock()/RLock()/Unlock()/RUnlock()
// against the named-lock registry: returns the lock key and whether the
// call acquires.
func classifyLockOp(info *types.Info, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	// sel.X is the mutex expression <owner>.<field>.
	muSel, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	owner := namedType(typeOf(info, muSel.X))
	if owner == nil || owner.Obj().Pkg() == nil {
		return "", false, false
	}
	for _, s := range namedLockSpecs {
		if owner.Obj().Name() == s.typeName && owner.Obj().Pkg().Name() == s.pkgName &&
			muSel.Sel.Name == s.fieldName {
			return s.key, acquire, true
		}
	}
	return "", false, false
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// --- graph construction ------------------------------------------------

func buildCallGraph(snap *Snapshot) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	for _, pkg := range snap.Pkgs {
		for fn, fd := range funcDecls(pkg) {
			g.Nodes[fn] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
		}
	}
	for _, node := range g.Nodes {
		if node.Decl.Body != nil {
			collectEvents(g, node)
		}
	}
	// Compute every whole-graph summary eagerly: the graph is built
	// under the Snapshot's sync.Once, so everything memoized here is
	// visible to the concurrent analyzer goroutines without further
	// locking.
	g.lockSummaries()
	g.blockSummaries()
	g.releaserParams()
	return g
}

// sortedNodes returns the graph's nodes in a deterministic order
// (label, then declaration position), so fixpoint witness selection and
// per-function scans do not depend on map iteration order.
func (g *CallGraph) sortedNodes() []*FuncNode {
	if g.sorted != nil {
		return g.sorted
	}
	nodes := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		li, lj := FuncLabel(nodes[i].Fn), FuncLabel(nodes[j].Fn)
		if li != lj {
			return li < lj
		}
		return nodes[i].Fn.Pos() < nodes[j].Fn.Pos()
	})
	g.sorted = nodes
	return nodes
}

// collectEvents walks one declaration body building its timeline.
func collectEvents(g *CallGraph, node *FuncNode) {
	info := node.Pkg.Info
	// noChan suppresses the channel-primitive events inside a select's
	// comm clauses: the select itself is the blocking (or, with a
	// default clause, non-blocking) operation, not the individual
	// send/recv cases under it.
	var walk func(n ast.Node, deferred, noChan bool, loop int)
	visitCall := func(call *ast.CallExpr, deferred bool, loop int) {
		if key, acquire, ok := classifyLockOp(info, call); ok {
			kind := EvRelease
			if acquire {
				kind = EvAcquire
			}
			node.Events = append(node.Events, Event{
				Kind: kind, Lock: key, Pos: call.Pos(),
				Deferred: deferred, InLoop: loop > 0,
			})
			return
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			return
		}
		kind := EvCall
		if _, declared := g.Nodes[callee]; !declared {
			// Interface methods (repl.Conn.Send, backend.Backend.Put)
			// and out-of-module functions (time.Sleep, os.WriteFile):
			// the dataflow layer classifies these as blocking or not.
			kind = EvExtCall
		}
		node.Events = append(node.Events, Event{
			Kind: kind, Callee: callee, Pos: call.Pos(),
			Deferred: deferred, InLoop: loop > 0,
		})
	}
	walk = func(n ast.Node, deferred, noChan bool, loop int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch mm := m.(type) {
			case *ast.GoStmt:
				// The spawned work runs without the spawner's locks:
				// keep its calls for reachability, not for hold edges.
				collectAsync(g, node, mm.Call)
				return false
			case *ast.DeferStmt:
				walk(mm.Call, true, noChan, loop)
				return false
			case *ast.ForStmt:
				if mm.Init != nil {
					walk(mm.Init, deferred, noChan, loop)
				}
				if mm.Cond != nil {
					walk(mm.Cond, deferred, noChan, loop)
				}
				if mm.Post != nil {
					walk(mm.Post, deferred, noChan, loop+1)
				}
				walk(mm.Body, deferred, noChan, loop+1)
				return false
			case *ast.RangeStmt:
				walk(mm.X, deferred, noChan, loop)
				if t := typeOf(info, mm.X); t != nil && !noChan {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						// Ranging a channel blocks on every iteration.
						node.Events = append(node.Events, Event{
							Kind: EvBlock, Desc: "chan-recv (range)", Pos: mm.Pos(),
							Deferred: deferred, InLoop: true,
						})
					}
				}
				walk(mm.Body, deferred, noChan, loop+1)
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range mm.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					node.Events = append(node.Events, Event{
						Kind: EvBlock, Desc: "select", Pos: mm.Pos(),
						Deferred: deferred, InLoop: loop > 0,
					})
				}
				for _, c := range mm.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok {
						continue
					}
					if cc.Comm != nil {
						walk(cc.Comm, deferred, true, loop)
					}
					for _, s := range cc.Body {
						walk(s, deferred, noChan, loop)
					}
				}
				return false
			case *ast.SendStmt:
				if !noChan {
					node.Events = append(node.Events, Event{
						Kind: EvBlock, Desc: "chan-send", Pos: mm.Arrow,
						Deferred: deferred, InLoop: loop > 0,
					})
				}
				return true
			case *ast.UnaryExpr:
				if mm.Op == token.ARROW && !noChan {
					node.Events = append(node.Events, Event{
						Kind: EvBlock, Desc: "chan-recv", Pos: mm.Pos(),
						Deferred: deferred, InLoop: loop > 0,
					})
				}
				return true
			case *ast.CallExpr:
				visitCall(mm, deferred, loop)
				return true // arguments may contain nested calls/lits
			}
			return true
		})
	}
	walk(node.Decl.Body, false, false, 0)
}

// collectAsync records every module-internal call under a go statement.
func collectAsync(g *CallGraph, node *FuncNode, root ast.Node) {
	info := node.Pkg.Info
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			return true
		}
		if _, declared := g.Nodes[callee]; declared {
			node.AsyncCalls = append(node.AsyncCalls, CallRef{Callee: callee, Pos: call.Pos()})
		}
		return true
	})
}

// --- lock summaries ----------------------------------------------------

// acqWitness records how a function's call tree reaches an acquisition
// of a lock: directly (via == nil) or through a callee.
type acqWitness struct {
	via *types.Func // nil: acquired directly at pos
	pos token.Pos   // acquisition site, or the call site into via
}

// lockSummary is the per-function fixpoint state. delta is the net
// held-count change a caller observes once the call returns: lockAll is
// +1 on stripes, unlockAll is -1, balanced bodies are 0. Deferred events
// count (they ran at return). Values saturate to {-1, 0, +1} — the
// analyses only need the sign.
type lockSummary struct {
	// mayAcquire: every named lock the function's synchronous call tree
	// can acquire, with one witness step for path reconstruction.
	mayAcquire map[string]acqWitness
	delta      map[string]int
}

// lockSummaries computes every node's summary to fixpoint. Built
// eagerly inside buildCallGraph, i.e. under the Snapshot's sync.Once,
// so concurrent analyzers read it without locking.
func (g *CallGraph) lockSummaries() map[*types.Func]*lockSummary {
	if g.lockSums != nil {
		return g.lockSums
	}
	sums := map[*types.Func]*lockSummary{}
	for fn := range g.Nodes {
		sums[fn] = &lockSummary{
			mayAcquire: map[string]acqWitness{},
			delta:      map[string]int{},
		}
	}
	// mayAcquire grows monotonically; the saturated deltas live in a
	// tiny domain. The iteration cap is a belt against a pathological
	// oscillation, far above what convergence needs.
	for iter := 0; iter < 4*len(sums)+16; iter++ {
		changed := false
		for fn, node := range g.Nodes {
			if recomputeLockSummary(node, sums, sums[fn]) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	g.lockSums = sums
	return sums
}

func saturate(n int) int {
	if n > 1 {
		return 1
	}
	if n < -1 {
		return -1
	}
	return n
}

// lockAcc accumulates one lock's running balance across a linear event
// scan. The scan is branch-blind: a function that acquires once and
// releases on each of three early-return paths would sum to -2 if
// counted naively. So releases clamp the running balance at zero —
// alternative unlock paths cannot take a function below balanced —
// UNLESS the function never acquires the lock at all (directly or via a
// callee): then it is a pure releaser like unlockAll, whose whole point
// is a negative delta, and the raw sum is used.
type lockAcc struct {
	held   int  // clamped running balance
	raw    int  // unclamped sum
	sawPos bool // any acquire or positive callee delta seen
}

func (a *lockAcc) add(d int) {
	a.raw += d
	if d > 0 {
		a.sawPos = true
	}
	a.held += d
	if a.held < 0 {
		a.held = 0
	}
}

func (a *lockAcc) result() int {
	if a == nil {
		return 0
	}
	if !a.sawPos {
		return saturate(a.raw)
	}
	return saturate(a.held)
}

// recomputeLockSummary re-derives one function's summary from its
// timeline plus current callee summaries; reports whether it changed.
func recomputeLockSummary(node *FuncNode, sums map[*types.Func]*lockSummary, out *lockSummary) bool {
	changed := false
	body := map[string]*lockAcc{}
	add := func(key string, d int) {
		a := body[key]
		if a == nil {
			a = &lockAcc{}
			body[key] = a
		}
		a.add(d)
	}
	note := func(key string, w acqWitness) {
		if _, ok := out.mayAcquire[key]; !ok {
			out.mayAcquire[key] = w
			changed = true
		}
	}
	for _, ev := range node.Events {
		switch ev.Kind {
		case EvAcquire:
			note(ev.Lock, acqWitness{pos: ev.Pos})
			add(ev.Lock, 1)
		case EvRelease:
			add(ev.Lock, -1)
		case EvCall:
			cs := sums[ev.Callee]
			if cs == nil {
				continue
			}
			for key := range cs.mayAcquire {
				note(key, acqWitness{via: ev.Callee, pos: ev.Pos})
			}
			for key, d := range cs.delta {
				if d != 0 {
					add(key, d)
				}
			}
		}
	}
	for _, key := range LockKeys() {
		if d := body[key].result(); out.delta[key] != d {
			out.delta[key] = d
			changed = true
		}
	}
	return changed
}

// AcquirePath renders the witness chain from fn down to a direct
// acquisition of key, e.g.
// "jcf.Framework.CheckInData → oms.Store.Apply → oms.Store.lockAll".
func (g *CallGraph) AcquirePath(fn *types.Func, key string) string {
	sums := g.lockSummaries()
	var parts []string
	parts = append(parts, FuncLabel(fn))
	cur := fn
	for range g.Nodes { // bounded walk; witnesses cannot cycle forever
		s := sums[cur]
		if s == nil {
			break
		}
		w, ok := s.mayAcquire[key]
		if !ok || w.via == nil {
			break
		}
		parts = append(parts, FuncLabel(w.via))
		cur = w.via
	}
	return strings.Join(parts, " → ")
}
