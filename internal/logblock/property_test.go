package logblock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"logstore/internal/schema"
)

// randomRows is the quick generator for LogBlock property tests: a
// random-but-valid single-tenant batch.
type randomRows struct {
	Rows []schema.Row
}

// Generate implements quick.Generator.
func (randomRows) Generate(rand *rand.Rand, size int) reflect.Value {
	n := 1 + rand.Intn(200)
	rows := make([]schema.Row, n)
	tenant := int64(rand.Intn(100))
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(tenant),
			schema.IntValue(rand.Int63n(1 << 40)),
			schema.StringValue(randString(rand, 15)),
			schema.StringValue("/" + randString(rand, 8)),
			schema.IntValue(rand.Int63n(10000) - 100),
			schema.StringValue([]string{"true", "false"}[rand.Intn(2)]),
			schema.StringValue(randString(rand, 40)),
		}
	}
	return reflect.ValueOf(randomRows{Rows: rows})
}

func randString(rand *rand.Rand, maxLen int) string {
	n := rand.Intn(maxLen + 1)
	const alphabet = "abcdefghij KLMNOP.-_0123456789/:="
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rand.Intn(len(alphabet))]
	}
	return string(b)
}

// TestPropertyRoundTrip: any valid batch survives build → pack → open →
// AllRows with content identical up to the builder's stable time sort.
func TestPropertyRoundTrip(t *testing.T) {
	sch := schema.RequestLogSchema()
	tsIdx := sch.TimeIdx()
	f := func(in randomRows, blockRowsRaw uint8) bool {
		blockRows := 1 + int(blockRowsRaw)%96
		built, err := Build(sch, in.Rows, BuildOptions{BlockRows: blockRows})
		if err != nil {
			return false
		}
		packed, err := built.Pack()
		if err != nil {
			return false
		}
		r, err := OpenReader(BytesFetcher(packed))
		if err != nil {
			return false
		}
		got, err := r.AllRows()
		if err != nil {
			return false
		}
		if len(got) != len(in.Rows) {
			return false
		}
		// Expected = stable sort by ts of the input.
		want := make([]schema.Row, len(in.Rows))
		copy(want, in.Rows)
		stableSortByTS(want, tsIdx)
		for i := range want {
			for c := range want[i] {
				if !got[i][c].Equal(want[i][c]) {
					return false
				}
			}
		}
		// Meta invariants.
		if r.Meta.MinTS != want[0][tsIdx].I || r.Meta.MaxTS != want[len(want)-1][tsIdx].I {
			return false
		}
		for _, cm := range r.Meta.Columns {
			if cm.SMA.Count != int64(len(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func stableSortByTS(rows []schema.Row, tsIdx int) {
	// Insertion sort: stable and fine at property-test sizes.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j][tsIdx].I < rows[j-1][tsIdx].I; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// TestPropertyIndexConsistency: for any batch, the inverted index and
// BKD tree agree with brute force on random probes. The batches are
// below MinIndexedRows, so they are built with buildIndexed.
func TestPropertyIndexConsistency(t *testing.T) {
	sch := schema.RequestLogSchema()
	latIdx := sch.ColumnIndex("latency")
	failIdx := sch.ColumnIndex("fail")
	f := func(in randomRows) bool {
		built, err := buildIndexed(sch, in.Rows, BuildOptions{BlockRows: 64})
		if err != nil {
			return false
		}
		packed, err := built.Pack()
		if err != nil {
			return false
		}
		r, err := OpenReader(BytesFetcher(packed))
		if err != nil {
			return false
		}
		sorted, err := r.AllRows()
		if err != nil {
			return false
		}
		// BKD: latency range [0, 500]. A constant column (one row, say)
		// has no tree: its SMA answers every range.
		if r.HasIndex(latIdx) {
			tree, err := r.BKDIndex(latIdx)
			if err != nil {
				return false
			}
			bs, _, err := tree.Range(0, 500, r.Meta.RowCount)
			if err != nil {
				return false
			}
			for i, row := range sorted {
				want := row[latIdx].I >= 0 && row[latIdx].I <= 500
				if bs.Test(i) != want {
					return false
				}
			}
		} else if sma := r.Meta.Columns[latIdx].SMA; sma.MinI != sma.MaxI {
			return false
		}
		// Inverted: fail = 'true'.
		ix, err := r.InvertedIndex(failIdx)
		if err != nil {
			return false
		}
		hits, err := ix.LookupBitset("true", r.Meta.RowCount)
		if err != nil {
			return false
		}
		for i, row := range sorted {
			if hits.Test(i) != (row[failIdx].S == "true") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
