package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeakAnalyzer enforces the stop-path rule for goroutines: every
// `go` statement's body must be able to terminate. The leak shape that
// matters in this tree is the forever-loop worker (heartbeat, raft run
// loop, archiver, soak writers) spun up without a way out — it
// pins its captures, its ticker, and a stack for the life of the
// process, and in tests it outlives the harness and races teardown.
//
// The check is structural: resolve the goroutine's body (a func
// literal, a same-package function, or a local variable bound to a
// literal) and require every infinite `for` loop in it (nil condition:
// `for { ... }`) to contain a reachable exit — a `return`, or a
// `break` that binds to that loop (unlabeled and unshadowed by a
// nested breakable construct, or labeled with the loop's label).
// `range ch` loops end when the channel closes and bodies without
// infinite loops run off their end, so both pass without ceremony;
// WaitGroup/stop-channel/context idioms all materialize as a return
// or break and need no special-casing. Bodies the analyzer cannot see
// (cross-package calls, method values) are accepted silently.
var GoLeakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "every go statement needs a reachable stop path (return or break out of its forever-loops)",
	Run:  runGoLeak,
}

func runGoLeak(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// seen dedups bodies when one function launches the same
			// callee from several go statements.
			seen := make(map[token.Pos]bool)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body := p.goroutineBody(fn, g.Call)
				if body == nil || seen[body.Pos()] {
					return true
				}
				seen[body.Pos()] = true
				checkGoroutineLoops(p, body)
				return true
			})
		}
	}
}

// goroutineBody resolves the block that will run on the new goroutine,
// or nil when the callee's source is not visible in this package.
func (p *Pass) goroutineBody(enclosing *ast.FuncDecl, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if obj := p.Info.Uses[fun]; obj != nil {
			// Local variable bound to a func literal: go attempt(x).
			if _, isVar := obj.(*types.Var); isVar {
				return funcLitBoundTo(enclosing, obj, p.Info)
			}
			if f, isFn := obj.(*types.Func); isFn {
				return p.declBodyOf(f)
			}
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return p.declBodyOf(f)
		}
	}
	return nil
}

// declBodyOf finds the body of a function declared in this package.
func (p *Pass) declBodyOf(f *types.Func) *ast.BlockStmt {
	if f.Pkg() == nil || f.Pkg() != p.Pkg {
		return nil
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && p.Info.Defs[fd.Name] == f {
				return fd.Body
			}
		}
	}
	return nil
}

// funcLitBoundTo scans enclosing for `v := func(...) {...}` / `v = func...`
// assignments to obj and returns the literal's body (the last one wins,
// matching execution order for straight-line rebinding).
func funcLitBoundTo(enclosing *ast.FuncDecl, obj types.Object, info *types.Info) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			target := info.Defs[id]
			if target == nil {
				target = info.Uses[id]
			}
			if target != obj {
				continue
			}
			if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
				body = lit.Body
			}
		}
		return true
	})
	return body
}

// checkGoroutineLoops reports every infinite for-loop in body with no
// binding exit. Nested func literals are skipped — they run on yet
// another goroutine or a callback stack, not this one.
func checkGoroutineLoops(p *Pass, body *ast.BlockStmt) {
	var labels []*ast.LabeledStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.LabeledStmt:
			labels = append(labels, n)
		case *ast.ForStmt:
			if n.Cond != nil {
				return true
			}
			label := ""
			for _, l := range labels {
				if l.Stmt == ast.Stmt(n) {
					label = l.Label.Name
				}
			}
			if !loopHasExit(n, label) {
				p.Reportf(n.Pos(), "goroutine runs a forever-loop with no stop path: add a return or break (stop channel, context, or WaitGroup-guarded exit)")
			}
		}
		return true
	})
}

// loopHasExit reports whether loop's body contains a return, or a
// break that binds to loop.
func loopHasExit(loop *ast.ForStmt, label string) bool {
	found := false
	// walk carries whether an unlabeled break at this depth still binds
	// to our loop (false once inside a nested breakable construct).
	var walk func(n ast.Node, breakBinds bool)
	walk = func(n ast.Node, breakBinds bool) {
		if n == nil || found {
			return
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return // different frame: its returns don't exit our loop
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			if s.Tok != token.BREAK && s.Tok != token.GOTO {
				return
			}
			if s.Tok == token.BREAK {
				if s.Label == nil && breakBinds {
					found = true
				}
				if s.Label != nil && label != "" && s.Label.Name == label {
					found = true
				}
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Unlabeled breaks inside bind to this inner construct.
			ast.Inspect(n, func(inner ast.Node) bool {
				if inner == n {
					return true
				}
				walk(inner, false)
				return false
			})
			return
		}
		// Generic descent preserving breakBinds.
		children(n, func(c ast.Node) { walk(c, breakBinds) })
	}
	for _, st := range loop.Body.List {
		walk(st, true)
	}
	return found
}

// children invokes fn on n's direct child nodes.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
