package logblock

// Helpers of the package's tests that the external tests of objects in
// the tar layout, which open them through package tarblock, use.
var (
	GoldenRows           = goldenRows
	BuildAndOpen         = buildAndOpen
	AssertSameParts      = assertSameParts
	AssertSameButIndexes = assertSameButIndexes
)
