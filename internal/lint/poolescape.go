package lint

import (
	"go/ast"
	"strings"
)

// PoolEscapeAnalyzer proves the pooled-buffer lifetime invariant the
// zero-alloc ingest path depends on: a value obtained from a
// sync.Pool.Get (or regrown from one — AppendSubProposal may return
// the pooled buffer or a fresh slice, so both are tracked) must not be
// used in any way after the matching Put. A use after Put is a
// use-after-free with extra steps: the pool may have handed the buffer
// to a concurrent goroutine, so reads race and writes corrupt another
// request's data. The analysis is the dataflow core's use-after-kill
// mode: Pool.Get generates an origin, aliases propagate through
// assignment/slicing/append/slice-returning calls, Pool.Put (and the
// project's put*/release helpers, which wrap a Put) kills it, and any
// later appearance of an alias — including storing it, returning it,
// or sending it on a channel — is a finding.
var PoolEscapeAnalyzer = &Analyzer{
	Name: "poolescape",
	Doc:  "values from sync.Pool.Get must not be used, stored, returned, or sent after the matching Put",
	Run:  runPoolEscape,
}

var poolEscapeSpec = &taintSpec{
	sourceCall:   poolGetSource,
	killArgs:     poolPutKills,
	useAfterKill: true,
}

func runPoolEscape(p *Pass) {
	runTaint(p, poolEscapeSpec)
}

// poolGetSource matches (*sync.Pool).Get calls.
func poolGetSource(p *Pass, call *ast.CallExpr) (string, bool) {
	if isPoolMethod(p, call, "Get") {
		return "pooled value", true
	}
	return "", false
}

// poolPutKills matches (*sync.Pool).Put(x) — killing x — and the
// project's put/release helper idiom (appendScratch.release, ...),
// which returns its arguments and receiver to a pool.
func poolPutKills(p *Pass, call *ast.CallExpr) []ast.Expr {
	if isPoolMethod(p, call, "Put") {
		return call.Args
	}
	f := calleeFunc(p.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() == "sync" {
		return nil
	}
	// A bare Put is some other storage API (oss.Store.Put does not
	// recycle its argument); only putX helpers and release/free names
	// carry pool-return semantics here.
	name := f.Name()
	if !(strings.HasPrefix(strings.ToLower(name), "put") && len(name) > 3) &&
		!strings.EqualFold(name, "release") && !strings.EqualFold(name, "free") {
		return nil
	}
	killed := append([]ast.Expr(nil), call.Args...)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		killed = append(killed, sel.X) // method receiver (scratch.release())
	}
	return killed
}

// isPoolMethod reports whether call is the named method on sync.Pool.
func isPoolMethod(p *Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	f := calleeFunc(p.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return false
	}
	return true
}
