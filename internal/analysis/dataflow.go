package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The path-aware dataflow layer: the shared machinery under holdblock
// and releasepath. Two whole-graph facts are computed here, both as
// fixpoint summaries over the call graph in the style of lockSummaries:
//
//   - mayBlock: for every declared function, the set of blocking-call
//     CLASSES its synchronous call tree can reach (network and disk
//     I/O, channel operations, time.Sleep, the module's own
//     commit/barrier entry points), each with one witness step so a
//     finding can print the full call path down to the blocking site.
//   - releaserParams: for every declared function, which of its
//     parameters it releases (calls Close on, returns to a sync.Pool,
//     or forwards to another releasing parameter). releasepath uses
//     this to tell "handing a connection to its closer" apart from
//     "losing a connection".
//
// Like the lock summaries, both are computed eagerly inside
// buildCallGraph — under the Snapshot's sync.Once — so the concurrent
// analyzer goroutines read them without locking, and both iterate the
// graph in sorted node order so witness selection is deterministic.

// --- blocking-call classification --------------------------------------

// blockWitness records how a function reaches one blocking class:
// directly at pos (via == nil, desc names the site) or through a callee.
type blockWitness struct {
	via  *types.Func // nil: blocks directly in this function
	pos  token.Pos   // blocking site, or the call site into via
	desc string      // via == nil: human-readable site, e.g. "os.WriteFile"
}

// blockSummary is the per-function blocking fixpoint state.
type blockSummary struct {
	mayBlock map[string]blockWitness
}

// blockClass reduces an EvBlock description to its class key
// ("chan-recv (range)" → "chan-recv").
func blockClass(desc string) string {
	if i := strings.IndexByte(desc, ' '); i >= 0 {
		return desc[:i]
	}
	return desc
}

// osBlockingFuncs are the package-level os functions that hit the disk.
var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Stat": true, "Lstat": true, "Truncate": true, "Chtimes": true,
}

// osFileBlockingMethods are the *os.File methods that hit the disk.
// Close is deliberately absent: closing is brief, and the tree's
// close-under-teardown-lock sites (Replica.Close) are design, not bugs.
var osFileBlockingMethods = map[string]bool{
	"Read": true, "ReadAt": true, "ReadFrom": true,
	"Write": true, "WriteAt": true, "WriteString": true, "WriteTo": true,
	"Seek": true, "Sync": true, "Stat": true, "Truncate": true,
}

// ioBlockingFuncs are the io helpers that pump an underlying stream.
var ioBlockingFuncs = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true,
	"ReadAll": true, "ReadFull": true, "ReadAtLeast": true,
	"WriteString": true,
}

// classifyExtBlocking classifies a call to a function declared outside
// the module (stdlib, or a module-declared INTERFACE method — interface
// methods have no body and are never call-graph nodes). Returns the
// blocking class key, or ok=false for non-blocking calls.
//
// Deliberate exclusions, because the tree depends on them:
//   - sync.Cond.Wait atomically releases the mutex it is guarded by
//     (the feed subscription pump and Replica.WaitFor idiom);
//   - sync.Mutex/RWMutex Lock: lock-vs-lock interaction is lockgraph's
//     and lockorder's job, not holdblock's;
//   - Close on connections and files: teardown is brief and the repo
//     closes under teardown locks by design.
func classifyExtBlocking(callee *types.Func) (string, bool) {
	if callee == nil || callee.Pkg() == nil {
		return "", false
	}
	name := callee.Name()
	recv := recvNamed(callee)
	recvName := ""
	if recv != nil {
		recvName = recv.Obj().Name()
	}
	// Standard library: match by import path (unambiguous).
	switch callee.Pkg().Path() {
	case "time":
		if recv == nil && name == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if recvName == "WaitGroup" && name == "Wait" {
			return "sync.WaitGroup.Wait", true
		}
	case "os":
		if recv == nil && osBlockingFuncs[name] {
			return "os-io", true
		}
		if recvName == "File" && osFileBlockingMethods[name] {
			return "os-io", true
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "Accept",
			"Read", "Write", "ReadFrom", "WriteTo":
			return "net-io", true
		}
	case "io":
		if recv == nil && ioBlockingFuncs[name] {
			return "io", true
		}
		if recv != nil && (name == "Read" || name == "Write") {
			return "io", true
		}
	case "bufio":
		switch name {
		case "Read", "ReadByte", "ReadRune", "ReadString", "ReadBytes",
			"ReadSlice", "Peek", "Discard", "Fill",
			"Write", "WriteByte", "WriteRune", "WriteString",
			"Flush", "ReadFrom", "WriteTo":
			return "io", true
		}
	}
	// Module interfaces: match by package NAME so the fixture trees
	// (which mirror the real packages by name) exercise the same code.
	switch callee.Pkg().Name() {
	case "repl":
		switch {
		case recvName == "Conn" && (name == "Send" || name == "Recv"):
			return "repl.Conn." + name, true
		case recvName == "Listener" && name == "Accept":
			return "repl.Listener.Accept", true
		case recvName == "Dialer" && name == "Dial":
			return "repl.Dialer.Dial", true
		}
	case "backend":
		if recvName == "Backend" {
			switch name {
			case "Put", "Get", "Delete", "List":
				return "backend." + name, true
			}
		}
	}
	return "", false
}

// classifyModuleBlocking classifies calls to module-DECLARED functions
// that are blocking by contract when entered from outside their own
// package: the store's commit/snapshot entry points serialize on the
// whole stripe set (and a snapshot capture besides), and WaitFor parks
// until the replica catches up. Inside their own package they are
// implementation, not a boundary.
func classifyModuleBlocking(callee *types.Func, callerPkg string) (string, bool) {
	if callee.Pkg() == nil {
		return "", false
	}
	recv := recvNamed(callee)
	if recv == nil {
		return "", false
	}
	pkg, recvName, name := callee.Pkg().Name(), recv.Obj().Name(), callee.Name()
	switch {
	case pkg == "oms" && recvName == "Store" && callerPkg != "oms":
		switch name {
		case "Apply", "ApplyReplicated", "Snapshot", "Overlay", "ResetFromSnapshot":
			return "oms.Store." + name, true
		}
	case pkg == "repl" && recvName == "Replica" && callerPkg != "repl" && name == "WaitFor":
		return "repl.Replica.WaitFor", true
	}
	return "", false
}

// blockSummaries computes every node's mayBlock set to fixpoint.
// Deferred events count (they run before the function returns, while a
// caller's locks are still held); events inside RETURNED closures do
// not (they run, if ever, in the caller — and the tree's returned
// closures are unlockers, which must stay non-blocking anyway).
func (g *CallGraph) blockSummaries() map[*types.Func]*blockSummary {
	if g.blockSums != nil {
		return g.blockSums
	}
	sums := map[*types.Func]*blockSummary{}
	for fn := range g.Nodes {
		sums[fn] = &blockSummary{mayBlock: map[string]blockWitness{}}
	}
	nodes := g.sortedNodes()
	for iter := 0; iter < 4*len(sums)+16; iter++ {
		changed := false
		for _, node := range nodes {
			if recomputeBlockSummary(node, sums, sums[node.Fn]) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	g.blockSums = sums
	return sums
}

func recomputeBlockSummary(node *FuncNode, sums map[*types.Func]*blockSummary, out *blockSummary) bool {
	changed := false
	note := func(class string, w blockWitness) {
		if _, ok := out.mayBlock[class]; !ok {
			out.mayBlock[class] = w
			changed = true
		}
	}
	callerPkg := node.Pkg.Name
	for _, ev := range node.Events {
		switch ev.Kind {
		case EvBlock:
			note(blockClass(ev.Desc), blockWitness{pos: ev.Pos, desc: ev.Desc})
		case EvExtCall:
			if class, ok := classifyExtBlocking(ev.Callee); ok {
				note(class, blockWitness{pos: ev.Pos, desc: FuncLabel(ev.Callee)})
			}
		case EvCall:
			if class, ok := classifyModuleBlocking(ev.Callee, callerPkg); ok {
				note(class, blockWitness{pos: ev.Pos, desc: FuncLabel(ev.Callee)})
			}
			if cs := sums[ev.Callee]; cs != nil {
				for class := range cs.mayBlock {
					note(class, blockWitness{via: ev.Callee, pos: ev.Pos})
				}
			}
		}
	}
	return changed
}

// BlockPath renders the witness chain from fn down to the blocking site
// of class, and returns every function label on the way (for allowlist
// matching) plus the rendered path.
func (g *CallGraph) BlockPath(fn *types.Func, class string) (labels []string, path string) {
	sums := g.blockSummaries()
	labels = append(labels, FuncLabel(fn))
	desc := class
	cur := fn
	for range g.Nodes { // bounded walk; witnesses cannot cycle forever
		s := sums[cur]
		if s == nil {
			break
		}
		w, ok := s.mayBlock[class]
		if !ok {
			break
		}
		if w.via == nil {
			desc = w.desc
			break
		}
		labels = append(labels, FuncLabel(w.via))
		cur = w.via
	}
	return labels, strings.Join(labels, " → ") + " → " + desc
}

// --- releaser parameters -----------------------------------------------

// isPoolPut matches (*sync.Pool).Put.
func isPoolPut(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return false
	}
	recv := recvNamed(callee)
	return recv != nil && recv.Obj().Name() == "Pool" && callee.Name() == "Put"
}

// releaserParams computes, to fixpoint, which parameters each declared
// function releases: the body calls Close on the parameter, hands it to
// a sync.Pool, or forwards it to an already-known releasing parameter.
// This is what lets releasepath treat `p.closeConn(c)` and
// `fw.putBatch(b)` as releases rather than escapes.
func (g *CallGraph) releaserParams() map[*types.Func]map[int]bool {
	if g.relParams != nil {
		return g.relParams
	}
	rel := map[*types.Func]map[int]bool{}
	nodes := g.sortedNodes()
	for iter := 0; iter < 2*len(nodes)+16; iter++ {
		changed := false
		for _, node := range nodes {
			if recomputeReleaserParams(g, node, rel) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	g.relParams = rel
	return rel
}

// paramIndexOf maps an identifier to the index of the parameter it
// names, or -1.
func paramIndexOf(info *types.Info, decl *ast.FuncDecl, id *ast.Ident) int {
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || decl.Type.Params == nil {
		return -1
	}
	idx := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == obj {
				return idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return -1
}

// calleeParamIndex normalizes an argument position against the callee's
// signature (variadic arguments all land on the final parameter).
func calleeParamIndex(callee *types.Func, argPos int) int {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return argPos
	}
	n := sig.Params().Len()
	if sig.Variadic() && argPos >= n-1 {
		return n - 1
	}
	if argPos >= n {
		return -1
	}
	return argPos
}

func recomputeReleaserParams(g *CallGraph, node *FuncNode, rel map[*types.Func]map[int]bool) bool {
	if node.Decl.Body == nil {
		return false
	}
	info := node.Pkg.Info
	changed := false
	mark := func(idx int) {
		if idx < 0 {
			return
		}
		m := rel[node.Fn]
		if m == nil {
			m = map[int]bool{}
			rel[node.Fn] = m
		}
		if !m[idx] {
			m[idx] = true
			changed = true
		}
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// param.Close() — the direct release.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				mark(paramIndexOf(info, node.Decl, id))
			}
		}
		// Forwarding a param to a releasing position.
		callee := calleeFunc(info, call)
		if callee == nil {
			return true
		}
		pool := isPoolPut(callee)
		calleeRel := rel[callee]
		if !pool && calleeRel == nil {
			return true
		}
		for argPos, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			if pool || calleeRel[calleeParamIndex(callee, argPos)] {
				mark(paramIndexOf(info, node.Decl, id))
			}
		}
		return true
	})
	return changed
}

// --- resource acquisition ----------------------------------------------

// acquireSpec describes one acquire-shaped call: what class of resource
// it produces and how that class is released. borrowOnly classes
// (pooled batches) treat an argument-pass to a non-releasing function
// as a borrow — the caller still owns the value and must release it —
// where ordinary classes treat it as an ownership transfer.
type acquireSpec struct {
	class      string
	release    string // how to release, for the finding message
	borrowOnly bool
}

// classifyAcquire matches a call against the acquire-shaped APIs:
// transport dials/accepts, feed subscriptions, OS file handles, pooled
// batch builders. Matching is by result type + function name (so every
// implementation of repl.Dialer counts, not just the interface method).
func classifyAcquire(info *types.Info, call *ast.CallExpr) (acquireSpec, bool) {
	if call == nil {
		return acquireSpec{}, false
	}
	callee := calleeFunc(info, call)
	if callee == nil || callee.Pkg() == nil {
		return acquireSpec{}, false
	}
	name := callee.Name()
	if callee.Pkg().Path() == "os" && recvNamed(callee) == nil {
		switch name {
		case "Open", "OpenFile", "Create", "CreateTemp":
			return acquireSpec{class: "os.File", release: "Close"}, true
		}
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return acquireSpec{}, false
	}
	r0 := namedType(sig.Results().At(0).Type())
	if r0 == nil || r0.Obj().Pkg() == nil {
		return acquireSpec{}, false
	}
	pkg, typ := r0.Obj().Pkg().Name(), r0.Obj().Name()
	switch {
	case pkg == "repl" && typ == "Conn" && (name == "Dial" || name == "Accept"):
		return acquireSpec{class: "repl.Conn", release: "Close"}, true
	case pkg == "repl" && typ == "Listener" && name == "ListenTCP":
		return acquireSpec{class: "repl.Listener", release: "Close"}, true
	case pkg == "oms" && typ == "Subscription":
		return acquireSpec{class: "oms.Subscription", release: "Close"}, true
	case pkg == "oms" && typ == "Batch" && name == "getBatch":
		return acquireSpec{class: "oms.Batch", release: "putBatch", borrowOnly: true}, true
	}
	return acquireSpec{}, false
}
