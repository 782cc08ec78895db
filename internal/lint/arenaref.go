package lint

import (
	"go/ast"
	"go/types"
)

// ArenaRefAnalyzer guards the lifetime invariant behind the vectorized
// scan engine: a decoded vector's typed slices (StringVector.Starts and
// .Lens, Int64Vector.Vals) are storage owned by the vector, and the
// vector's lifetime is the decoded-vector cache entry's — it can be
// evicted the moment the scan that fetched it returns, and the slices
// are the vector's to account for, not a caller's to keep. Retaining
// one beyond that window is the bug class: the analyzer flags every
// escape of such a slice — stored into a field, map, slice element, or
// composite literal; sent on a channel; or returned to a caller
// (outside logblock itself). Copying the elements out is always safe.
// A string value (StringVector.Value, the Arena field) is not tracked:
// a Go string cannot alias recyclable memory, so keeping a substring of
// the arena is safe by construction — it keeps the arena alive, which
// is what results that outlive their vector are meant to do.
var ArenaRefAnalyzer = &Analyzer{
	Name: "arenaref",
	Doc:  "decoded vector slices must not be retained beyond the vector's lifetime (copy the elements out)",
	Run:  runArenaRef,
}

var arenaRefSpec = &taintSpec{
	sourceSel:    arenaFieldRead,
	escapeStore:  true,
	escapeSend:   true,
	escapeReturn: true,
}

func runArenaRef(p *Pass) {
	if isPkgPath(p.Path, logblockPkgSuffix) {
		return // the vector API's home package hands out views by design
	}
	runTaint(p, arenaRefSpec)
}

// arenaFieldRead matches direct reads of the vector-owned slices:
// StringVector.Starts / .Lens and Int64Vector.Vals.
func arenaFieldRead(p *Pass, sel *ast.SelectorExpr) (string, bool) {
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	recv := selection.Recv()
	if !isPkgPath(namedTypePkgPath(recv), logblockPkgSuffix) {
		return "", false
	}
	switch tn, f := namedTypeName(recv), sel.Sel.Name; {
	case tn == "StringVector" && (f == "Starts" || f == "Lens"):
		return "vector-owned slice (StringVector." + f + ")", true
	case tn == "Int64Vector" && f == "Vals":
		return "vector-owned slice (Int64Vector.Vals)", true
	}
	return "", false
}
