package logblock

import (
	"fmt"
	"testing"

	"logstore/internal/schema"
)

func vectorTestSchema() *schema.Schema {
	return &schema.Schema{
		Name: "t",
		Columns: []schema.Column{
			{Name: "tenant_id", Type: schema.Int64, Index: schema.IndexNone},
			{Name: "ts", Type: schema.Int64, Index: schema.IndexNone},
			{Name: "api", Type: schema.String, Index: schema.IndexNone},
			{Name: "msg", Type: schema.String, Index: schema.IndexNone},
		},
		TenantCol: "tenant_id",
		TimeCol:   "ts",
	}
}

func buildVectorTestReader(t *testing.T, rows int, blockRows int) (*Reader, []schema.Row) {
	t.Helper()
	sch := vectorTestSchema()
	data := make([]schema.Row, rows)
	for i := range data {
		data[i] = schema.Row{
			schema.IntValue(1),
			schema.IntValue(int64(i)),
			schema.StringValue(fmt.Sprintf("/api/%d", i%3)), // low cardinality → dict
			schema.StringValue(fmt.Sprintf("unique message %d with some text", i)),
		}
	}
	built, err := Build(sch, data, BuildOptions{BlockRows: blockRows, NoIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(BytesFetcher(packed))
	if err != nil {
		t.Fatal(err)
	}
	return r, data
}

// TestBlockVectorMatchesBoxedValues checks that the typed vectors hold
// the boxed values they were built from, for every column and block,
// across plain int, plain string, and dictionary encodings.
func TestBlockVectorMatchesBoxedValues(t *testing.T) {
	r, data := buildVectorTestReader(t, 300, 64)
	m := r.Meta
	for ci := range m.Schema.Columns {
		for bi := 0; bi < m.NumBlocks; bi++ {
			vec, err := r.BlockVector(ci, bi)
			if err != nil {
				t.Fatal(err)
			}
			start, end := m.BlockRowRange(bi)
			if vec.Len() != end-start {
				t.Fatalf("col %d block %d: length %d, want %d", ci, bi, vec.Len(), end-start)
			}
			if vec.Valid.Count() != end-start {
				t.Fatalf("col %d block %d: validity count %d", ci, bi, vec.Valid.Count())
			}
			for i := 0; i < vec.Len(); i++ {
				want := data[start+i][ci]
				if !vec.Value(i).Equal(want) {
					t.Fatalf("col %d block %d row %d: vector %v, want %v", ci, bi, i, vec.Value(i), want)
				}
			}
		}
	}
}

// TestDictVectorSharesArena verifies the dictionary-decoded vector
// stores each distinct value once: rows with equal values share extents.
func TestDictVectorSharesArena(t *testing.T) {
	r, _ := buildVectorTestReader(t, 256, 256)
	api := r.Meta.Schema.ColumnIndex("api")
	vec, err := r.BlockVector(api, 0)
	if err != nil {
		t.Fatal(err)
	}
	sv := vec.Strs
	if sv == nil {
		t.Fatal("api column should decode to a string vector")
	}
	// 3 distinct values of ~7 bytes: the arena must hold the dictionary,
	// not 256 copies.
	if len(sv.Arena) > 64 {
		t.Fatalf("dict arena is %d bytes; extents are not shared", len(sv.Arena))
	}
	if sv.Value(0) != sv.Value(3) || sv.Starts[0] != sv.Starts[3] {
		t.Fatalf("rows 0 and 3 should share a dict extent")
	}
}

// countingVectorCache records Get/Put traffic.
type countingVectorCache struct {
	m    map[string]any
	gets int
	hits int
	puts int
}

func (c *countingVectorCache) Get(key string) (any, bool) {
	c.gets++
	v, ok := c.m[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *countingVectorCache) Contains(key string) bool {
	_, ok := c.m[key]
	return ok
}

func (c *countingVectorCache) Put(key string, value any, size int64) {
	if size <= 0 {
		panic("vector cached with non-positive size")
	}
	c.m[key] = value
	c.puts++
}

// TestBlockVectorUsesCache verifies the decoded-vector cache level:
// second reads hit the cache and return the identical vector.
func TestBlockVectorUsesCache(t *testing.T) {
	r, _ := buildVectorTestReader(t, 200, 64)
	c := &countingVectorCache{m: make(map[string]any)}
	r.SetVectorCache(c, "obj/1")
	v1, err := r.BlockVector(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.BlockVector(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("cache hit should return the identical vector")
	}
	if c.puts != 1 || c.hits != 1 {
		t.Fatalf("puts=%d hits=%d, want 1/1", c.puts, c.hits)
	}
	if !r.VectorCached(1, 0) || r.VectorCached(1, 1) || r.VectorCached(99, 0) || c.gets != 2 {
		t.Fatalf("VectorCached: (1,0) %v, (1,1) %v, (99,0) %v after %d gets; want true, false, false after 2",
			r.VectorCached(1, 0), r.VectorCached(1, 1), r.VectorCached(99, 0), c.gets)
	}
	if _, ok := c.m[VectorCacheKey("obj/1", 1, 0)]; !ok {
		t.Fatal("vector not cached under the canonical key")
	}
}

// TestRetainedBytesGrowsWithIndexes verifies openReader-style cache
// charging: the retained estimate covers manifest+meta up front and
// grows when index members are memoized.
func TestRetainedBytesGrowsWithIndexes(t *testing.T) {
	sch := schema.RequestLogSchema()
	rows := make([]schema.Row, 500)
	for i := range rows {
		rows[i] = schema.Row{
			schema.IntValue(1), schema.IntValue(int64(i)),
			schema.StringValue("10.0.0.1"), schema.StringValue("/v1/get"),
			schema.IntValue(int64(i % 100)), schema.StringValue("false"),
			schema.StringValue(fmt.Sprintf("log line %d", i)),
		}
	}
	built, err := Build(sch, rows, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := built.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(BytesFetcher(packed))
	if err != nil {
		t.Fatal(err)
	}
	base := r.RetainedBytes()
	if base <= 0 {
		t.Fatalf("base retained bytes %d", base)
	}
	tree, err := r.BKDIndex(sch.ColumnIndex("latency"))
	if err != nil {
		t.Fatal(err)
	}
	after := r.RetainedBytes()
	// The decoded tree is charged, 12 B per entry, not the member bytes.
	if got := after - base; got != tree.SizeBytes() || got < 12*int64(len(rows)) {
		t.Fatalf("index load charged %d bytes, want the decoded tree's %d (%d entries)", got, tree.SizeBytes(), tree.Len())
	}
	// Re-loading the same index must not double-charge.
	if _, err := r.BKDIndex(sch.ColumnIndex("latency")); err != nil {
		t.Fatal(err)
	}
	if r.RetainedBytes() != after {
		t.Fatalf("duplicate index load changed retained bytes: %d -> %d", after, r.RetainedBytes())
	}
}
