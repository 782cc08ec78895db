package lint

// This file is the framework's intraprocedural dataflow core: a
// reaching-definitions walk with alias sets, shared by the lifetime
// analyzers (poolescape, arenaref). The model:
//
//   - An *origin* is one value-creation site the analysis tracks — a
//     sync.Pool.Get call, a read of a decoded vector's Int64Vector.Vals.
//     Origins are generated while expressions are evaluated in
//     statement order.
//   - The *taintEnv* is the flow state: an alias map from local
//     variables (types.Object) to the set of origins they may alias,
//     plus the set of origins whose lifetime has ended (killed — e.g.
//     the matching Pool.Put was reached on this path).
//   - Statements are walked in syntactic order; branch bodies
//     (if/for/switch/select) run on a *clone* of the incoming state,
//     so a kill or assignment on one path never poisons a sibling
//     path — the same may-analysis discipline lockio uses for its
//     held-mutex set.
//   - Aliases propagate through assignment, sub-slicing, dereference,
//     type assertion, the append builtin, and calls that return a
//     slice when handed a tainted argument (the callee may return a
//     view of or a regrown version of its input — worker's
//     AppendSubProposal is the canonical case). Conversion to string
//     copies and therefore drops taint.
//
// A taintSpec parameterizes one client analysis: how origins are
// generated, what kills them, and which events count as findings
// (any use after a kill, or an escape — heap store, channel send,
// return).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// origin is one tracked value-creation site.
type origin struct {
	pos  token.Pos
	desc string
}

// originSet is a small may-alias set of origins.
type originSet map[*origin]bool

func (s originSet) union(t originSet) originSet {
	if len(t) == 0 {
		return s
	}
	if len(s) == 0 {
		// Share t: sets are treated as immutable once stored.
		return t
	}
	u := make(originSet, len(s)+len(t))
	for o := range s {
		u[o] = true
	}
	for o := range t {
		u[o] = true
	}
	return u
}

// taintEnv is the per-path flow state.
type taintEnv struct {
	vars map[types.Object]originSet
	dead map[*origin]token.Pos // origin → kill site
}

func newTaintEnv() *taintEnv {
	return &taintEnv{
		vars: make(map[types.Object]originSet),
		dead: make(map[*origin]token.Pos),
	}
}

func (e *taintEnv) clone() *taintEnv {
	c := &taintEnv{
		vars: make(map[types.Object]originSet, len(e.vars)),
		dead: make(map[*origin]token.Pos, len(e.dead)),
	}
	for k, v := range e.vars {
		c.vars[k] = v // sets are immutable once stored
	}
	for k, v := range e.dead {
		c.dead[k] = v
	}
	return c
}

// taintSpec parameterizes one taint analysis.
type taintSpec struct {
	// sourceCall reports whether evaluating call creates a tracked
	// value, with a description for findings ("sync.Pool.Get value").
	sourceCall func(p *Pass, call *ast.CallExpr) (string, bool)
	// sourceSel reports whether reading sel creates a tracked value
	// (arenaref: StringVector.Starts/.Lens and Int64Vector.Vals reads).
	sourceSel func(p *Pass, sel *ast.SelectorExpr) (string, bool)
	// killArgs returns the expressions whose origins end when call
	// executes (Pool.Put(x) → x; a put/release helper → its args).
	killArgs func(p *Pass, call *ast.CallExpr) []ast.Expr
	// useAfterKill flags any appearance of a killed origin's alias.
	useAfterKill bool
	// escapeStore / escapeSend / escapeReturn flag live-value escapes:
	// stores into heap-reachable locations (fields, map/slice elements,
	// pointer targets, composite literals), channel sends, returns.
	escapeStore  bool
	escapeSend   bool
	escapeReturn bool
}

// taintWalker threads one spec over one function body.
type taintWalker struct {
	p    *Pass
	spec *taintSpec
}

// runTaint applies spec to every function body in the package.
func runTaint(p *Pass, spec *taintSpec) {
	w := &taintWalker{p: p, spec: spec}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w.block(fn.Body, newTaintEnv())
		}
	}
}

func (w *taintWalker) block(b *ast.BlockStmt, env *taintEnv) {
	for _, s := range b.List {
		w.stmt(s, env)
	}
}

func (w *taintWalker) stmt(s ast.Stmt, env *taintEnv) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, env)
	case *ast.AssignStmt:
		w.assign(s, env)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var set originSet
					if i < len(vs.Values) {
						set = w.expr(vs.Values[i], env)
					}
					if obj := w.p.Info.Defs[name]; obj != nil {
						env.vars[obj] = set
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			set := w.expr(r, env)
			if w.spec.escapeReturn && w.live(set, env) != nil {
				o := w.live(set, env)
				w.p.Reportf(r.Pos(), "%s returned to the caller outlives its owner (created at %s)",
					o.desc, w.p.Fset.Position(o.pos))
			}
		}
	case *ast.SendStmt:
		set := w.expr(s.Value, env)
		if w.spec.escapeSend && w.live(set, env) != nil {
			o := w.live(set, env)
			w.p.Reportf(s.Arrow, "%s sent on a channel escapes its owner (created at %s)",
				o.desc, w.p.Fset.Position(o.pos))
		}
		w.expr(s.Chan, env)
	case *ast.DeferStmt:
		// Deferred work runs at return: evaluate against a clone so a
		// deferred Put does not kill the origin for the statements that
		// follow in the body.
		w.expr(s.Call, env.clone())
	case *ast.GoStmt:
		// The goroutine body runs asynchronously; analyze it against a
		// snapshot of the current state.
		w.expr(s.Call, env.clone())
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, env)
		}
		w.expr(s.Cond, env)
		w.block(s.Body, env.clone())
		if s.Else != nil {
			w.stmt(s.Else, env.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, env)
		}
		if s.Cond != nil {
			w.expr(s.Cond, env)
		}
		if s.Post != nil {
			w.stmt(s.Post, env.clone())
		}
		w.block(s.Body, env.clone())
	case *ast.RangeStmt:
		w.expr(s.X, env)
		sub := env.clone()
		// Range variables hold fresh per-iteration values; clear any
		// stale aliases from earlier bindings of the same names.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := lhsObject(w.p.Info, id); obj != nil {
					sub.vars[obj] = nil
				}
			}
		}
		w.block(s.Body, sub)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, env)
		}
		if s.Tag != nil {
			w.expr(s.Tag, env)
		}
		w.caseBodies(s.Body, env)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, env)
		}
		w.caseBodies(s.Body, env)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if comm, ok := c.(*ast.CommClause); ok {
				sub := env.clone()
				if comm.Comm != nil {
					w.stmt(comm.Comm, sub)
				}
				for _, st := range comm.Body {
					w.stmt(st, sub)
				}
			}
		}
	case *ast.BlockStmt:
		w.block(s, env)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, env)
	case *ast.IncDecStmt:
		w.expr(s.X, env)
	}
}

func (w *taintWalker) caseBodies(body *ast.BlockStmt, env *taintEnv) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			sub := env.clone()
			for _, e := range cc.List {
				w.expr(e, sub)
			}
			for _, st := range cc.Body {
				w.stmt(st, sub)
			}
		}
	}
}

// assign propagates taint from RHS to LHS and checks heap-store
// escapes (a live tracked value written through a field, element, or
// pointer target becomes reachable beyond this frame).
func (w *taintWalker) assign(s *ast.AssignStmt, env *taintEnv) {
	sets := make([]originSet, len(s.Rhs))
	for i, r := range s.Rhs {
		sets[i] = w.expr(r, env)
	}
	for i, lhs := range s.Lhs {
		var set originSet
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			set, rhs = sets[i], s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			// Multi-value RHS (call/assert/receive): every LHS may alias.
			set, rhs = sets[0], s.Rhs[0]
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if obj := lhsObject(w.p.Info, l); obj != nil {
				if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
					env.vars[obj] = set
				} else if len(set) > 0 { // op-assign (+=): accumulate
					env.vars[obj] = env.vars[obj].union(set)
				}
			}
		default:
			// Store through a field, element, or pointer target.
			w.expr(lhs, env)
			if w.spec.escapeStore && rhs != nil {
				if o := w.live(set, env); o != nil {
					w.p.Reportf(rhs.Pos(), "%s stored into %s escapes its owner (created at %s)",
						o.desc, storeKind(lhs), w.p.Fset.Position(o.pos))
				}
			}
		}
	}
}

func storeKind(lhs ast.Expr) string {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a map or slice element"
	case *ast.StarExpr:
		return "a pointer target"
	}
	return "a heap location"
}

// live returns one live (un-killed) origin from set, or nil.
func (w *taintWalker) live(set originSet, env *taintEnv) *origin {
	for o := range set {
		if _, dead := env.dead[o]; !dead {
			return o
		}
	}
	return nil
}

// expr evaluates one expression: generates origins at sources,
// propagates aliases, applies kills, and reports use-after-kill.
// The returned set is the origins the expression's value may alias.
func (w *taintWalker) expr(e ast.Expr, env *taintEnv) originSet {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := w.p.Info.Uses[e]
		if obj == nil {
			obj = w.p.Info.Defs[e]
		}
		set := env.vars[obj]
		if w.spec.useAfterKill {
			for o := range set {
				if kill, dead := env.dead[o]; dead {
					w.p.Reportf(e.Pos(), "use of %s (created at %s) after it was released at %s",
						o.desc, w.p.Fset.Position(o.pos), w.p.Fset.Position(kill))
				}
			}
		}
		return set
	case *ast.ParenExpr:
		return w.expr(e.X, env)
	case *ast.StarExpr:
		return w.expr(e.X, env)
	case *ast.UnaryExpr:
		return w.expr(e.X, env)
	case *ast.SliceExpr:
		set := w.expr(e.X, env)
		w.expr(e.Low, env)
		w.expr(e.High, env)
		w.expr(e.Max, env)
		return set
	case *ast.TypeAssertExpr:
		return w.expr(e.X, env)
	case *ast.SelectorExpr:
		if w.spec.sourceSel != nil {
			if desc, ok := w.spec.sourceSel(w.p, e); ok {
				w.expr(e.X, env)
				return originSet{&origin{pos: e.Pos(), desc: desc}: true}
			}
		}
		// A field read of a tainted struct value stays tainted only for
		// pointer-ish fields; keep it simple: propagate the base's set
		// (a view held inside a tracked struct is still the view).
		return w.expr(e.X, env)
	case *ast.IndexExpr:
		w.expr(e.X, env)
		w.expr(e.Index, env)
		return nil // an element of a tracked slice is a scalar copy
	case *ast.CallExpr:
		return w.call(e, env)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Key, env)
				v = kv.Value
			}
			set := w.expr(v, env)
			if w.spec.escapeStore {
				if o := w.live(set, env); o != nil {
					w.p.Reportf(v.Pos(), "%s stored into a composite literal escapes its owner (created at %s)",
						o.desc, w.p.Fset.Position(o.pos))
				}
			}
		}
		return nil
	case *ast.BinaryExpr:
		w.expr(e.X, env)
		w.expr(e.Y, env)
		return nil
	case *ast.FuncLit:
		// The literal's body sees a snapshot of the enclosing state.
		w.block(e.Body, env.clone())
		return nil
	case *ast.KeyValueExpr:
		w.expr(e.Key, env)
		return w.expr(e.Value, env)
	}
	return nil
}

// call handles sources, kills, conversions, and alias propagation
// through calls.
func (w *taintWalker) call(call *ast.CallExpr, env *taintEnv) originSet {
	// Conversions: string(x) copies (drops taint); same-shape slice
	// conversions share backing (keep taint).
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		set := w.expr(call.Args[0], env)
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			return nil
		}
		return set
	}

	// Evaluate the callee expression: a method call on a tainted
	// receiver contributes the receiver's aliases. Only slice- and
	// pointer-typed values can donate their backing store to a slice
	// result, so taint carried by other shapes (an io.Reader handed out
	// of a pooled struct, say) stops at the call boundary.
	var tainted originSet
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		recvSet := w.expr(sel.X, env)
		if typeCanDonateBacking(w.p.Info.TypeOf(sel.X)) {
			tainted = tainted.union(recvSet)
		}
	} else {
		w.expr(call.Fun, env)
	}

	argSets := make([]originSet, len(call.Args))
	for i, a := range call.Args {
		argSets[i] = w.expr(a, env)
		if typeCanDonateBacking(w.p.Info.TypeOf(a)) {
			tainted = tainted.union(argSets[i])
		}
	}

	// Kills run after argument evaluation: Put(x) is a legal last use.
	if w.spec.killArgs != nil {
		for _, ke := range w.spec.killArgs(w.p, call) {
			for o := range w.originsOfQuiet(ke, env) {
				if _, dead := env.dead[o]; !dead {
					env.dead[o] = call.Pos()
				}
			}
		}
	}

	if w.spec.sourceCall != nil {
		if desc, ok := w.spec.sourceCall(w.p, call); ok {
			return originSet{&origin{pos: call.Pos(), desc: desc}: true}
		}
	}

	// The append builtin returns a (possibly regrown) view of its first
	// argument. Appended *elements* are copied in, so a byte spread
	// (`append(dst, view...)`) launders taint — it is the blessed
	// copy-out idiom — while appending a slice-typed element
	// (`append(held, view)`) or spreading a slice-of-slices retains the
	// views themselves.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := w.p.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			res := argSets[0]
			for i := 1; i < len(call.Args); i++ {
				elem := w.p.Info.TypeOf(call.Args[i])
				if elem != nil && call.Ellipsis.IsValid() && i == len(call.Args)-1 {
					if sl, ok := elem.Underlying().(*types.Slice); ok {
						elem = sl.Elem() // spread: the slice's elements are copied in
					}
				}
				if typeCanDonateBacking(elem) {
					res = res.union(argSets[i])
				}
			}
			return res
		}
	}
	if len(tainted) > 0 && resultHasSlice(w.p.Info.TypeOf(call)) {
		return tainted
	}
	return nil
}

// originsOfQuiet resolves the alias set of an already-evaluated
// expression without re-reporting uses (kill targets were evaluated
// as arguments just before).
func (w *taintWalker) originsOfQuiet(e ast.Expr, env *taintEnv) originSet {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.p.Info.Uses[e]
		if obj == nil {
			obj = w.p.Info.Defs[e]
		}
		return env.vars[obj]
	case *ast.StarExpr:
		return w.originsOfQuiet(e.X, env)
	case *ast.UnaryExpr:
		return w.originsOfQuiet(e.X, env)
	case *ast.SliceExpr:
		return w.originsOfQuiet(e.X, env)
	case *ast.SelectorExpr:
		return w.originsOfQuiet(e.X, env)
	}
	return nil
}

// typeCanDonateBacking reports whether a value of type t can hand its
// backing array to a callee's slice result: slices and pointers
// (pointer-to-slice scratch, pooled struct pointers) can; scalars,
// strings (immutable copies), and interfaces cannot.
func typeCanDonateBacking(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	}
	return false
}

// resultHasSlice reports whether a call result type includes a slice
// or pointer (a shape that can alias an argument's backing array).
func resultHasSlice(t types.Type) bool {
	switch t := t.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if resultHasSlice(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		switch t.Underlying().(type) {
		case *types.Slice, *types.Pointer:
			return true
		}
		return false
	}
}
