// Package cfgir is the shared static intermediate representation of the
// pmrt-instrumented applications: a stdlib-only loader, per-function
// control-flow graphs whose nodes carry recognized pmrt.Ctx operations, and
// interprocedural fence/persist/store summaries computed to fixpoint.
//
// It exists so the two static tools stay on one front end: pmlint (the
// PM-misuse analyzer) consumes the IR to report missing persistence, and
// pmopt (the flush/fence redundancy analyzer) consumes the same IR to prove
// the opposite property — persistence that is already covered. Both tools'
// verdicts are only comparable because they see identical CFGs, identical
// operation classification, and identical summaries.
package cfgir

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// OpKind classifies a recognized pmrt.Ctx operation (or a call into another
// analyzed function).
type OpKind int

// Operation kinds.
const (
	OpNone    OpKind = iota
	OpStore          // Store, Store8, Store4, Store1 — cached store, needs flush+fence
	OpNTStore        // NTStore8 — bypasses cache, needs fence only
	OpCAS            // CAS8 — lock-free store on success, needs flush+fence
	OpZero           // Zero — untraced cached store, needs flush+fence
	OpLoad           // Load, Load8, Load4, Load1
	OpFlush          // Flush
	OpFence          // Fence
	OpPersist        // Persist — flush every line + fence
	OpLock           // Lock, RLock, WLock, SpinLock
	OpUnlock         // Unlock, RUnlock, WUnlock, SpinUnlock
	OpCallFn         // call to another analyzed function
	OpPanic          // panic(...) — path terminates abnormally
)

// IsStoreKind reports whether k writes PM.
func IsStoreKind(k OpKind) bool {
	return k == OpStore || k == OpNTStore || k == OpCAS || k == OpZero
}

// ctxMethodOps maps pmrt.Ctx method names to op kinds. TryLock is absent on
// purpose: its acquisition is conditional on the return value, which a
// path-insensitive lockset would model wrong in both directions.
var ctxMethodOps = map[string]OpKind{
	"Store": OpStore, "Store8": OpStore, "Store4": OpStore, "Store1": OpStore,
	"NTStore8": OpNTStore,
	"CAS8":     OpCAS,
	"Zero":     OpZero,
	"Load":     OpLoad, "Load8": OpLoad, "Load4": OpLoad, "Load1": OpLoad,
	"Flush":   OpFlush,
	"Fence":   OpFence,
	"Persist": OpPersist,
	"Lock":    OpLock, "RLock": OpLock, "WLock": OpLock, "SpinLock": OpLock,
	"Unlock": OpUnlock, "RUnlock": OpUnlock, "WUnlock": OpUnlock, "SpinUnlock": OpUnlock,
}

// OpCall is one recognized operation occurrence, a node payload in the CFG.
type OpCall struct {
	Kind OpKind
	Call *ast.CallExpr
	Pos  token.Pos
	// AddrBase is the normalized base of the address expression (stores,
	// loads, flush, persist); LockExpr the normalized lock expression
	// (lock/unlock).
	AddrBase string
	// AddrAlts holds the argument bases when the address expression is an
	// address-computing helper call (keyAddr(buf, i) → {buf, i}): a persist
	// of the underlying object (Persist(buf, n)) covers the store.
	AddrAlts []string
	LockExpr string
	// Callee and Args are set for OpCallFn: the target FuncInfo and the
	// normalized base of every value argument (aligned with callee params).
	Callee *FuncInfo
	Args   []string
	// RecvIsRecv marks a method call whose receiver is the enclosing
	// method's own receiver, enabling $recv-rooted summary translation.
	RecvIsRecv bool
}

// FuncInfo is the per-function analysis unit: a declared function, method,
// or function literal with its CFG and computed summaries.
type FuncInfo struct {
	Pkg  *Package
	Node ast.Node // *ast.FuncDecl or *ast.FuncLit
	Body *ast.BlockStmt
	Name string // diagnostic name, e.g. (*Index).putKey or func@wipe.go:17
	Recv string // receiver identifier name ("" for plain funcs/lits)
	// RecvType is the receiver's named type ("" otherwise); used to group
	// $recv-rooted accesses across methods of the same type.
	RecvType string
	Params   []string // parameter identifier names, in order
	// IsClosure marks function literals: their bodies share the enclosing
	// function's scope, so summary bases rooted at captured variables
	// translate verbatim to (same-scope) call sites.
	IsClosure bool

	CFG     *Graph
	Callers []*OpCall // call sites in other analyzed functions

	// Summaries (computed to fixpoint across the call graph by
	// ComputeSummaries). Bases are normalized expressions rooted at a
	// parameter name or at $recv.
	Fences        bool            // some path performs a fence (Fence or Persist)
	LeaksFlush    bool            // some path carries a flush to exit with no fence
	PersistsBases map[string]bool // bases persisted (with fence) on some path
	StoresBases   map[string]bool // bases stored to but never persisted locally
	LockBlowup    bool            // lockset state exceeded the cap; lockset checks skipped
}

// IR is the built intermediate representation: every analyzed function with
// its CFG, plus the resolution maps call linking used.
type IR struct {
	L     *Loader
	Pkgs  []*Package
	Funcs []*FuncInfo
	// ByObj resolves a types.Func (or the types.Var a closure is bound to)
	// to its analyzed FuncInfo for call linking.
	ByObj   map[types.Object]*FuncInfo
	LitInfo map[*ast.FuncLit]*FuncInfo
}

// Build constructs the IR over the given loaded packages: FuncInfos for
// every declaration and literal, CFGs, and caller links. Summaries are NOT
// computed here — call ComputeSummaries when a consumer needs them.
func Build(l *Loader, pkgs []*Package) *IR {
	ir := &IR{
		L: l, Pkgs: pkgs,
		ByObj:   make(map[types.Object]*FuncInfo),
		LitInfo: make(map[*ast.FuncLit]*FuncInfo),
	}
	ir.collectFuncs()
	ir.linkCalls()
	return ir
}

// Excluded reports whether IR construction skipped pkg. Only the pmrt
// runtime is skipped: it implements the primitives rather than using them.
func (ir *IR) Excluded(pkg *Package) bool { return pkg.Path == PmrtPath }

// PosOf converts a token.Pos to a module-relative slash-separated location.
func (ir *IR) PosOf(pos token.Pos) (string, int, int) {
	p := ir.L.Fset.Position(pos)
	rel, err := filepath.Rel(ir.L.ModuleDir, p.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line, p.Column
}

// collectFuncs builds a FuncInfo (with CFG) for every function declaration
// and function literal in the analyzed packages.
func (ir *IR) collectFuncs() {
	for _, pkg := range ir.Pkgs {
		if ir.Excluded(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fi := ir.newFuncInfo(pkg, fd, fd.Body)
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					ir.ByObj[obj] = fi
				}
				// Function literals inside the declaration become their own
				// analysis units (e.g. Spawn bodies are the spawned thread's
				// code, not part of the spawning function's control flow).
				ir.collectLits(pkg, fd.Body)
			}
		}
	}
	// Bind `name := func(...){...}` closures to their variable so direct
	// calls through the name resolve like ordinary function calls.
	for _, pkg := range ir.Pkgs {
		if ir.Excluded(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i := range as.Rhs {
					lit, ok := as.Rhs[i].(*ast.FuncLit)
					if !ok {
						continue
					}
					id, ok := as.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					fi := ir.LitInfo[lit]
					if fi == nil {
						continue
					}
					if obj := pkg.Info.Defs[id]; obj != nil {
						ir.ByObj[obj] = fi
					} else if obj := pkg.Info.Uses[id]; obj != nil {
						ir.ByObj[obj] = fi
					}
				}
				return true
			})
		}
	}
	// CFGs are built after all FuncInfos exist so call linking can resolve
	// forward references.
	for _, fi := range ir.Funcs {
		fi.CFG = ir.buildCFG(fi)
	}
}

func (ir *IR) collectLits(pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ir.newFuncInfo(pkg, lit, lit.Body)
			// Nested literals are found by the recursive Inspect of the
			// literal's own body during this walk; don't double-visit.
		}
		return true
	})
}

func (ir *IR) newFuncInfo(pkg *Package, node ast.Node, body *ast.BlockStmt) *FuncInfo {
	fi := &FuncInfo{
		Pkg:           pkg,
		Node:          node,
		Body:          body,
		PersistsBases: make(map[string]bool),
		StoresBases:   make(map[string]bool),
	}
	switch n := node.(type) {
	case *ast.FuncDecl:
		fi.Name = n.Name.Name
		if n.Recv != nil && len(n.Recv.List) > 0 {
			r := n.Recv.List[0]
			if len(r.Names) > 0 {
				fi.Recv = r.Names[0].Name
			}
			fi.RecvType = recvTypeName(r.Type)
			fi.Name = "(" + typeExprString(r.Type) + ")." + n.Name.Name
		}
		fi.Params = paramNames(n.Type)
	case *ast.FuncLit:
		file, line, _ := ir.PosOf(n.Pos())
		fi.Name = fmt.Sprintf("func@%s:%d", filepath.Base(file), line)
		fi.Params = paramNames(n.Type)
		fi.IsClosure = true
		ir.LitInfo[n] = fi
	}
	ir.Funcs = append(ir.Funcs, fi)
	return fi
}

func paramNames(ft *ast.FuncType) []string {
	var out []string
	if ft.Params == nil {
		return out
	}
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			out = append(out, "_")
			continue
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

func recvTypeName(t ast.Expr) string {
	switch e := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return ""
}

func typeExprString(t ast.Expr) string {
	switch e := t.(type) {
	case *ast.StarExpr:
		return "*" + typeExprString(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return typeExprString(e.X)
	}
	return "?"
}

// linkCalls records, for every OpCallFn node, the callee's FuncInfo and
// fills the callee's Callers list.
func (ir *IR) linkCalls() {
	for _, fi := range ir.Funcs {
		for _, n := range fi.CFG.Nodes {
			if n.Op != nil && n.Op.Kind == OpCallFn && n.Op.Callee != nil {
				n.Op.Callee.Callers = append(n.Op.Callee.Callers, n.Op)
			}
		}
	}
}

// classify recognizes a call expression inside fi: a pmrt.Ctx operation, a
// call to another analyzed function, or panic. Returns nil for everything
// else.
func (ir *IR) classify(fi *FuncInfo, call *ast.CallExpr) *OpCall {
	info := fi.Pkg.Info
	// panic(...) terminates the path.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return &OpCall{Kind: OpPanic, Call: call, Pos: call.Pos()}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// Package-qualified calls (pkg.Fn) are plain uses, not selections.
		if _, isSel := info.Selections[sel]; !isSel {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				if callee, ok := ir.ByObj[fn]; ok {
					oc := &OpCall{Kind: OpCallFn, Call: call, Pos: call.Pos(), Callee: callee}
					for _, arg := range call.Args {
						oc.Args = append(oc.Args, fi.NormBase(arg))
					}
					return oc
				}
			}
		}
		if s, ok := info.Selections[sel]; ok {
			if fn, ok := s.Obj().(*types.Func); ok {
				if k, isOp := ctxOp(fn, sel.Sel.Name); isOp {
					oc := &OpCall{Kind: k, Call: call, Pos: call.Pos()}
					switch k {
					case OpStore, OpNTStore, OpCAS, OpZero, OpLoad, OpFlush, OpPersist:
						if len(call.Args) > 0 {
							oc.AddrBase = fi.NormBase(call.Args[0])
							if inner, ok := Unparen(BaseExpr(call.Args[0])).(*ast.CallExpr); ok {
								for _, arg := range inner.Args {
									if b := fi.NormBase(arg); b != "" {
										oc.AddrAlts = append(oc.AddrAlts, b)
									}
								}
							}
						}
					case OpLock, OpUnlock:
						if len(call.Args) > 0 {
							oc.LockExpr = fi.NormExpr(call.Args[0])
						}
					}
					return oc
				}
				if callee, ok := ir.ByObj[fn]; ok {
					oc := &OpCall{Kind: OpCallFn, Call: call, Pos: call.Pos(), Callee: callee}
					for _, arg := range call.Args {
						oc.Args = append(oc.Args, fi.NormBase(arg))
					}
					if id, ok := Unparen(sel.X).(*ast.Ident); ok && fi.Recv != "" && id.Name == fi.Recv {
						oc.RecvIsRecv = true
					}
					return oc
				}
			}
		}
	}
	if id, ok := Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			if callee, ok := ir.ByObj[obj]; ok {
				oc := &OpCall{Kind: OpCallFn, Call: call, Pos: call.Pos(), Callee: callee}
				for _, arg := range call.Args {
					oc.Args = append(oc.Args, fi.NormBase(arg))
				}
				return oc
			}
		}
	}
	return nil
}

// ctxOp reports whether fn is a pmrt.Ctx operation method.
func ctxOp(fn *types.Func, name string) (OpKind, bool) {
	k, ok := ctxMethodOps[name]
	if !ok {
		return OpNone, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return OpNone, false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return OpNone, false
	}
	if named.Obj().Pkg().Path() != PmrtPath || named.Obj().Name() != "Ctx" {
		return OpNone, false
	}
	return k, true
}

// Unparen strips any number of enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
