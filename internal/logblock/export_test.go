package logblock

// Helpers of the package's tests that its external tests use: those of
// objects in the tar layout, which open them through package tarblock,
// and the index admission benchmark, which builds indexes below
// MinIndexedRows to weigh them.
var (
	GoldenRows           = goldenRows
	BuildAndOpen         = buildAndOpen
	AssertSameParts      = assertSameParts
	AssertSameButIndexes = assertSameButIndexes
	BuildIndexed         = buildIndexed
)
