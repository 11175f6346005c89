package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// lockorder enforces the OMS kernel's deadlock-freedom convention:
// stripe mutexes are only ever multi-acquired in ascending stripe order,
// and the only code allowed to do that is the small set of sorted
// helpers. Everything else takes at most ONE stripe lock directly (the
// single-object reads) — the moment a function wants a second stripe it
// must go through lockAll/rlockAll or Apply's stripe-set path, because
// two hand-written acquisitions cannot be statically proven ordered.
//
// Three shapes are flagged outside the allowed helpers:
//
//  1. indexed acquisition — st.stripes[i].mu.Lock(): raw index math over
//     the stripe array is exactly how an out-of-order pair sneaks in;
//  2. a second stripe-lock acquisition while another stripe lock is
//     statically live in the same function;
//  3. any stripe-lock acquisition inside a loop (a loop over stripes IS
//     a multi-acquisition).
//
// The helpers themselves are checked, not trusted by name: a stripe
// lock they take in a loop must be indexed by the loop's variable in a
// loop that counts up, and they take no second stripe lock outside such
// a loop while another is held.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "stripe mutexes may only be multi-acquired via the sorted helpers (lockAll/rlockAll/Apply)",
	Match: func(p *Package) bool {
		return p.Name == "oms" && p.Types.Scope().Lookup("stripe") != nil
	},
	Run: runLockOrder,
}

// lockOrderAllowed are the sorted-acquisition helpers: the only
// functions allowed to index the stripe array for locking or to hold
// more than one stripe lock, provided they do so in ascending order
// (checkSortedHelper). Apply is the grouped-operation commit path
// (its stripe-set mask loop is the batch equivalent of lockAll);
// forEachStripeRLocked releases each stripe before taking the next.
var lockOrderAllowed = map[string]bool{
	"lockAll":              true,
	"unlockAll":            true,
	"rlockAll":             true,
	"runlockAll":           true,
	"forEachStripeRLocked": true,
	"Apply":                true,
}

func runLockOrder(pass *Pass) {
	decls := funcDecls(pass.Package)
	for _, fd := range decls {
		switch {
		case fd.Body == nil:
		case lockOrderAllowed[fd.Name.Name]:
			checkSortedHelper(pass, fd)
		default:
			checkLockOrderFunc(pass, fd)
		}
	}
}

// checkSortedHelper checks that an allowed helper acquires stripes in
// ascending index order: in a loop that counts its stripe index up, and
// never a second stripe outside such a loop while another is held.
// Releases may run in any order.
func checkSortedHelper(pass *Pass, fd *ast.FuncDecl) {
	var loops []ast.Node
	var held []types.Object // stripe indexes locked outside loops, not yet released (nil: not a plain variable)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, nn)
			ast.Inspect(loopBody(nn), walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.CallExpr:
			se, acquire, ok := stripeLockCall(pass, nn)
			if !ok {
				return true
			}
			idx := stripeIndexObj(pass, fd, se)
			switch {
			case !acquire:
				for i, h := range held {
					if h == idx {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case len(loops) > 0:
				if idx == nil || !ascendingLoop(pass, loops[len(loops)-1], idx) {
					pass.Reportf(nn.Pos(), "stripe lock taken in a loop that does not count its stripe index up; the sorted helpers must acquire in ascending order")
				}
			default:
				if len(held) > 0 {
					pass.Reportf(nn.Pos(), "stripe %s locked while stripe %s is held, outside a loop that counts the stripe index up; the sorted helpers must acquire in ascending order", objName(idx), objName(held[0]))
				}
				held = append(held, idx)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// stripeIndexObj returns the variable a stripe expression is indexed
// by: i for st.stripes[i], or for a local s assigned &st.stripes[i] in
// fd. It is nil when the index is not a plain variable.
func stripeIndexObj(pass *Pass, fd *ast.FuncDecl, e ast.Expr) types.Object {
	if ix := stripesIndexExpr(e); ix != nil {
		return identObj(pass, ix.Index)
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	local := pass.Info.ObjectOf(id)
	var found types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for k, l := range as.Lhs {
			if identObj(pass, l) == local {
				if ix := stripesIndexExpr(as.Rhs[k]); ix != nil {
					found = identObj(pass, ix.Index)
				}
			}
		}
		return true
	})
	return found
}

// identObj returns the object a plain identifier denotes, else nil.
func identObj(pass *Pass, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return pass.Info.ObjectOf(id)
	}
	return nil
}

// ascendingLoop reports whether loop counts idx up: a range over an
// array, slice or integer whose key is idx, or a for loop whose post
// statement is idx++ or idx += a positive constant.
func ascendingLoop(pass *Pass, loop ast.Node, idx types.Object) bool {
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if l.Key == nil || identObj(pass, l.Key) != idx {
			return false
		}
		switch pass.Info.TypeOf(l.X).Underlying().(type) {
		case *types.Signature, *types.Chan, *types.Map:
			return false
		}
		return true
	case *ast.ForStmt:
		switch post := l.Post.(type) {
		case *ast.IncDecStmt:
			return post.Tok == token.INC && identObj(pass, post.X) == idx
		case *ast.AssignStmt:
			if post.Tok != token.ADD_ASSIGN || len(post.Lhs) != 1 || identObj(pass, post.Lhs[0]) != idx {
				return false
			}
			tv := pass.Info.Types[post.Rhs[0]]
			return tv.Value != nil && constant.Sign(tv.Value) > 0
		}
	}
	return false
}

// objName names a stripe index variable for a finding ("?" when the
// index is not a plain variable).
func objName(o types.Object) string {
	if o == nil {
		return "?"
	}
	return o.Name()
}

// stripeLockCall matches x.mu.Lock() / x.mu.RLock() (and the unlock
// forms) where x is a stripe value: returns the stripe expression and
// whether the call acquires (vs releases).
func stripeLockCall(pass *Pass, call *ast.CallExpr) (stripeExpr ast.Expr, acquire bool, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	var isAcquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isAcquire = true
	case "Unlock", "RUnlock":
		isAcquire = false
	default:
		return nil, false, false
	}
	// sel.X must be the mutex expression <stripe>.mu
	muSel, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel || muSel.Sel.Name != "mu" {
		return nil, false, false
	}
	tv, okT := pass.Info.Types[muSel.X]
	if !okT || !typeNameIs(tv.Type, "stripe") {
		return nil, false, false
	}
	return muSel.X, isAcquire, true
}

// stripesIndexExpr returns the raw indexing of a field/var named
// "stripes" the expression reaches its stripe through, or nil.
func stripesIndexExpr(e ast.Expr) *ast.IndexExpr {
	var found *ast.IndexExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if ix, ok := n.(*ast.IndexExpr); ok && rootIdentOfSelector(ix.X) == "stripes" {
			found = ix
		}
		return found == nil
	})
	return found
}

// rootIdentOfSelector returns the name of the final selector (or ident)
// an index expression indexes — "stripes" for st.stripes[i].
func rootIdentOfSelector(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

func checkLockOrderFunc(pass *Pass, fd *ast.FuncDecl) {
	// Collect every stripe-lock call in source order, remembering loop
	// nesting. Source order approximates execution order well enough
	// here: the kernel's lock/unlock pairs are straight-line.
	type lockEvent struct {
		pos     token.Pos
		expr    ast.Expr
		acquire bool
		inLoop  bool
		indexed bool
	}
	var events []lockEvent
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(loopBody(nn), walk)
			loopDepth--
			return false
		case *ast.CallExpr:
			if se, acquire, ok := stripeLockCall(pass, nn); ok {
				events = append(events, lockEvent{
					pos:     nn.Pos(),
					expr:    se,
					acquire: acquire,
					inLoop:  loopDepth > 0,
					indexed: stripesIndexExpr(se) != nil,
				})
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)

	// held tracks, per root identifier, how many acquisitions are
	// statically live. Distinct roots held together = a hand-ordered
	// multi-stripe hold.
	held := map[string]int{}
	liveRoots := 0
	for _, ev := range events {
		root := "?"
		if id := rootIdent(ev.expr); id != nil {
			root = id.Name
		}
		if !ev.acquire {
			if held[root] > 0 {
				held[root]--
				if held[root] == 0 {
					liveRoots--
				}
			}
			continue
		}
		if ev.indexed {
			pass.Reportf(ev.pos, "stripe lock acquired by indexing the stripe array directly; use lockAll/rlockAll or Apply's stripe-set path")
			continue
		}
		if ev.inLoop {
			pass.Reportf(ev.pos, "stripe lock acquired inside a loop; a loop over stripes is a multi-acquisition and must use the sorted helpers")
			continue
		}
		if liveRoots > 0 && held[root] == 0 {
			pass.Reportf(ev.pos, "second stripe lock acquired while another stripe lock is held; unordered multi-stripe holds deadlock — stage the writes in one Apply batch or use lockAll")
			continue
		}
		if held[root] == 0 {
			liveRoots++
		}
		held[root]++
	}
}

func loopBody(n ast.Node) ast.Node {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return n
}
