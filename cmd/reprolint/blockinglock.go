package main

// blockinglock: the RTR layer serializes connection writes and session state
// behind sync.Mutex/RWMutex. A blocking operation — a channel send or
// receive, a select with no default, a network or PDU write — performed
// while such a lock is held turns one slow peer into a stall for everyone
// queued on the lock: exactly the notify-fan-out hazard of the cache
// server's UpdateSet path (ROADMAP item 2). The analyzer tracks lock-held
// regions intraprocedurally (Lock/RLock opens one, Unlock/RUnlock closes it,
// defer Unlock holds to function end) and flags blocking operations inside
// them. It is scoped to internal/rtr, where the invariant is load-bearing.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var blockingLockAnalyzer = &Analyzer{
	Name: "blockinglock",
	Doc:  "flags channel operations and blocking calls made while a sync.Mutex/RWMutex is held in internal/rtr",
	AppliesTo: func(pkgPath string) bool {
		// The invariant is enforced where the fan-out paths live, plus the
		// analyzer's own testdata packages.
		return strings.Contains(pkgPath, "internal/rtr") ||
			strings.Contains(pkgPath, "testdata/src/blockinglock")
	},
	Run: runBlockingLock,
}

// blockingFuncs are fully-qualified functions that block on I/O or time.
var blockingFuncs = map[string]bool{
	"time.Sleep":  true,
	"io.ReadFull": true,
	"io.Copy":     true,
	// The RTR PDU codec reads and writes sockets.
	"repro/internal/rtr.WritePDU": true,
	"repro/internal/rtr.ReadPDU":  true,
}

// blockingMethods are methods that block, keyed by receiver type path.name
// and method name.
var blockingMethods = map[string]map[string]bool{
	"sync.WaitGroup": {"Wait": true},
	"sync.Cond":      {"Wait": true},
	// A connection's PDU reader blocks on its socket like ReadPDU.
	"repro/internal/rtr.pduReader": {"next": true},
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

type lockVisitor struct {
	pass *Pass
}

// heldLocks maps a lock's source text ("c.mu") to the position it was
// acquired. Keys are syntactic: two spellings of one lock are two entries,
// and distinct locks with one spelling alias — a sound-enough approximation
// for lint, with //lint:ignore as the pressure valve.
type heldLocks map[string]token.Pos

func (h heldLocks) clone() heldLocks {
	c := make(heldLocks, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h heldLocks) any() (string, bool) {
	for k := range h {
		return k, true
	}
	return "", false
}

func runBlockingLock(pass *Pass) {
	v := &lockVisitor{pass: pass}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if d, ok := n.(*ast.FuncDecl); ok {
				if d.Body != nil {
					v.scanStmts(d.Body.List, make(heldLocks))
				}
				return false
			}
			return true
		})
	}
}

// exprText renders the lock receiver expression for use as a held-set key.
func exprText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprText(t.X) + "." + t.Sel.Name
	case *ast.ParenExpr:
		return exprText(t.X)
	case *ast.StarExpr:
		return exprText(t.X)
	case *ast.IndexExpr:
		return exprText(t.X) + "[...]"
	case *ast.CallExpr:
		return exprText(t.Fun) + "(...)"
	}
	return "<lock>"
}

// lockOp classifies a call as Lock/RLock (acquire) or Unlock/RUnlock
// (release) on a mutex, returning the held-set key.
func (v *lockVisitor) lockOp(call *ast.CallExpr) (key string, acquire, release bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false
	}
	if !isMutexType(v.pass.TypeOf(sel.X)) {
		return "", false, false
	}
	return exprText(sel.X), acquire, release
}

// isBlockingCall reports whether the call is on the blocking list. Both
// qualified (io.Copy, c.wg.Wait) and same-package unqualified (WritePDU
// inside internal/rtr) spellings are recognized.
func (v *lockVisitor) isBlockingCall(call *ast.CallExpr) (string, bool) {
	var fnIdent *ast.Ident
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if isSel {
		fnIdent = sel.Sel
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		fnIdent = id
	} else {
		return "", false
	}
	if obj, ok := v.pass.Info.Uses[fnIdent].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() == nil {
			if pkg := obj.Pkg(); pkg != nil {
				name := pkg.Path() + "." + obj.Name()
				if blockingFuncs[name] {
					return name, true
				}
			}
		}
	}
	if !isSel {
		return "", false
	}
	t := v.pass.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			if methods := blockingMethods[obj.Pkg().Path()+"."+obj.Name()]; methods[sel.Sel.Name] {
				return obj.Name() + "." + sel.Sel.Name, true
			}
		}
	}
	return "", false
}

// scanExpr walks one expression in evaluation order, updating the held set
// at lock calls and flagging blocking operations while any lock is held.
// FuncLits start fresh: their bodies run later, on whatever goroutine calls
// them.
func (v *lockVisitor) scanExpr(e ast.Expr, held heldLocks) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			v.scanStmts(t.Body.List, make(heldLocks))
			return false
		case *ast.CallExpr:
			if key, acquire, release := v.lockOp(t); acquire || release {
				if acquire {
					held[key] = t.Pos()
				} else {
					delete(held, key)
				}
				return true
			}
			if name, blocking := v.isBlockingCall(t); blocking {
				if lock, anyHeld := held.any(); anyHeld {
					v.pass.Reportf(t.Pos(), "blocking call %s while %s is held (locked at %s): a slow peer stalls every goroutine queued on the lock", name, lock, v.pass.Fset.Position(held[lock]))
				}
			}
		case *ast.UnaryExpr:
			if t.Op == token.ARROW {
				if lock, anyHeld := held.any(); anyHeld {
					v.pass.Reportf(t.Pos(), "channel receive while %s is held (locked at %s): the sender may never come; release the lock first", lock, v.pass.Fset.Position(held[lock]))
				}
			}
		}
		return true
	})
}

// scanStmts walks a statement list in source order, threading the held set
// through it. Branch bodies get copies of the entry state; the state after a
// branch is the entry state (an unbalanced Lock inside a branch is under-
// approximated, which can miss but never false-positives on the joined
// path).
func (v *lockVisitor) scanStmts(stmts []ast.Stmt, held heldLocks) {
	for _, s := range stmts {
		v.scanStmt(s, held)
	}
}

func (v *lockVisitor) scanStmt(s ast.Stmt, held heldLocks) {
	switch t := s.(type) {
	case *ast.ExprStmt:
		v.scanExpr(t.X, held)
	case *ast.SendStmt:
		v.scanExpr(t.Chan, held)
		v.scanExpr(t.Value, held)
		if lock, anyHeld := held.any(); anyHeld {
			v.pass.Reportf(t.Arrow, "channel send while %s is held (locked at %s): a full channel stalls every goroutine queued on the lock; buffer outside the lock or use a non-blocking send", lock, v.pass.Fset.Position(held[lock]))
		}
	case *ast.AssignStmt:
		for _, e := range t.Rhs {
			v.scanExpr(e, held)
		}
		for _, e := range t.Lhs {
			v.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						v.scanExpr(e, held)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held to function end — no state
		// change. Other deferred calls run after the region, and a deferred
		// FuncLit runs with whatever is held at return; approximate the
		// common defer-cleanup case by scanning the literal lock-free.
		if _, _, release := v.lockOp(t.Call); !release {
			v.scanExpr(t.Call.Fun, held)
			for _, a := range t.Call.Args {
				v.scanExpr(a, held)
			}
		}
	case *ast.GoStmt:
		// The spawned body runs elsewhere: fresh held state. Arguments are
		// evaluated here, though.
		for _, a := range t.Call.Args {
			v.scanExpr(a, held)
		}
		if fl, ok := t.Call.Fun.(*ast.FuncLit); ok {
			v.scanStmts(fl.Body.List, make(heldLocks))
		}
	case *ast.IfStmt:
		if t.Init != nil {
			v.scanStmt(t.Init, held)
		}
		v.scanExpr(t.Cond, held)
		v.scanStmts(t.Body.List, held.clone())
		if t.Else != nil {
			v.scanStmt(t.Else, held.clone())
		}
	case *ast.ForStmt:
		if t.Init != nil {
			v.scanStmt(t.Init, held)
		}
		v.scanExpr(t.Cond, held)
		body := held.clone()
		v.scanStmts(t.Body.List, body)
		if t.Post != nil {
			v.scanStmt(t.Post, body)
		}
	case *ast.RangeStmt:
		v.scanExpr(t.X, held)
		v.scanStmts(t.Body.List, held.clone())
	case *ast.SwitchStmt:
		if t.Init != nil {
			v.scanStmt(t.Init, held)
		}
		v.scanExpr(t.Tag, held)
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				v.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			v.scanStmt(t.Init, held)
		}
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				v.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if lock, anyHeld := held.any(); anyHeld {
				v.pass.Reportf(t.Select, "select with no default while %s is held (locked at %s): the select can block indefinitely with the lock held", lock, v.pass.Fset.Position(held[lock]))
			}
		}
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				v.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.BlockStmt:
		v.scanStmts(t.List, held)
	case *ast.LabeledStmt:
		v.scanStmt(t.Stmt, held)
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			v.scanExpr(e, held)
		}
	case *ast.IncDecStmt:
		v.scanExpr(t.X, held)
	}
}
