package meta

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func info(tenant int64, path string, minTS, maxTS int64) BlockInfo {
	return BlockInfo{
		Tenant: tenant, Path: path, MinTS: minTS, MaxTS: maxTS,
		Rows: 100, Bytes: 1 << 20, CreatedMS: maxTS,
	}
}

// has reports whether the tenant has a block registered under path.
func has(m *Manager, tenant int64, path string) bool {
	b, ok := m.Lookup(path)
	return ok && b.Tenant == tenant
}

func TestRegisterValidation(t *testing.T) {
	m := NewManager()
	if err := m.Register(BlockInfo{Tenant: 1, Path: "", MinTS: 0, MaxTS: 1}); err == nil {
		t.Error("empty path accepted")
	}
	if err := m.Register(BlockInfo{Tenant: 1, Path: "p", MinTS: 10, MaxTS: 5}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestRegisterSortedAndReplace(t *testing.T) {
	m := NewManager()
	for _, b := range []BlockInfo{
		info(1, "b", 200, 299),
		info(1, "a", 100, 199),
		info(1, "c", 300, 399),
	} {
		if err := m.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	blocks := m.Blocks(1)
	if len(blocks) != 3 || blocks[0].Path != "a" || blocks[2].Path != "c" {
		t.Fatalf("blocks = %+v", blocks)
	}
	// Re-register same path updates in place.
	upd := info(1, "b", 200, 299)
	upd.Rows = 999
	if err := m.Register(upd); err != nil {
		t.Fatal(err)
	}
	blocks = m.Blocks(1)
	if len(blocks) != 3 || blocks[1].Rows != 999 {
		t.Fatalf("replace failed: %+v", blocks)
	}
}

func TestPrune(t *testing.T) {
	m := NewManager()
	for i := int64(0); i < 10; i++ {
		if err := m.Register(info(1, BlockPath("t", 1, i*100, uint64(i)), i*100, i*100+99)); err != nil {
			t.Fatal(err)
		}
	}
	// Range covering blocks 2..4 (inclusive overlap).
	got := m.Prune(1, 250, 450)
	if len(got) != 3 {
		t.Fatalf("Prune returned %d blocks, want 3", len(got))
	}
	for _, b := range got {
		if b.MaxTS < 250 || b.MinTS > 450 {
			t.Errorf("non-overlapping block %s", b.Path)
		}
	}
	// Tenant isolation: other tenants never appear.
	if err := m.Register(info(2, "other", 0, 1000)); err != nil {
		t.Fatal(err)
	}
	for _, b := range m.Prune(1, 0, 1000) {
		if b.Tenant != 1 {
			t.Error("prune leaked another tenant's block")
		}
	}
	// Empty range / unknown tenant.
	if got := m.Prune(1, 5000, 6000); len(got) != 0 {
		t.Errorf("out-of-range prune = %v", got)
	}
	if got := m.Prune(99, 0, 1000); len(got) != 0 {
		t.Errorf("unknown tenant prune = %v", got)
	}
}

func TestRemove(t *testing.T) {
	m := NewManager()
	if err := m.Register(info(1, "a", 0, 99)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(info(1, "b", 100, 199)); err != nil {
		t.Fatal(err)
	}
	m.Remove(1, "a")
	if got := m.Blocks(1); len(got) != 1 || got[0].Path != "b" {
		t.Fatalf("after remove: %+v", got)
	}
	m.Remove(1, "nonexistent") // idempotent
	m.Remove(1, "b")
	if got := m.Tenants(); len(got) != 0 {
		t.Errorf("tenant with no blocks should vanish: %v", got)
	}
}

func TestUsageAndTenants(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		b := info(5, BlockPath("t", 5, int64(i*100), uint64(i)), int64(i*100), int64(i*100+99))
		if err := m.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	rows, bytes := m.Usage(5)
	if rows != 300 || bytes != 3<<20 {
		t.Errorf("Usage = %d rows, %d bytes", rows, bytes)
	}
	if rows, bytes = m.Usage(99); rows != 0 || bytes != 0 {
		t.Error("unknown tenant usage should be zero")
	}
	if ts := m.Tenants(); len(ts) != 1 || ts[0] != 5 {
		t.Errorf("Tenants = %v", ts)
	}
}

func TestRetentionAndExpiration(t *testing.T) {
	m := NewManager()
	// Tenant 1: keep 1 hour. Tenant 2: keep forever.
	m.SetRetention(1, time.Hour)
	for i := int64(0); i < 5; i++ {
		if err := m.Register(info(1, BlockPath("t", 1, i*600_000, uint64(i)), i*600_000, i*600_000+599_999)); err != nil {
			t.Fatal(err)
		}
		if err := m.Register(info(2, BlockPath("t", 2, i*600_000, uint64(i)), i*600_000, i*600_000+599_999)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Retention(1); got != time.Hour {
		t.Errorf("Retention = %v", got)
	}
	// Now = 2 hours: tenant 1 blocks fully older than now-1h expire.
	nowMS := int64(2 * 3600_000)
	expired := m.Expired(nowMS)
	for _, b := range expired {
		if b.Tenant != 1 {
			t.Errorf("tenant %d expired despite no retention", b.Tenant)
		}
		if b.MaxTS >= nowMS-3600_000 {
			t.Errorf("block %s not fully out of window", b.Path)
		}
	}
	if len(expired) == 0 {
		t.Fatal("nothing expired")
	}
	// Clearing retention stops expiration.
	m.SetRetention(1, 0)
	if got := m.Expired(nowMS); len(got) != 0 {
		t.Errorf("after clearing retention: %d expired", len(got))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := NewManager()
	m.SetRetention(1, 48*time.Hour)
	if err := m.Register(info(1, "a", 0, 99)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(info(2, "b", 100, 199)); err != nil {
		t.Fatal(err)
	}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager()
	if err := m2.Unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	if len(m2.Blocks(1)) != 1 || len(m2.Blocks(2)) != 1 {
		t.Error("blocks lost in snapshot")
	}
	if m2.Retention(1) != 48*time.Hour {
		t.Errorf("retention lost: %v", m2.Retention(1))
	}
	if err := m2.Unmarshal([]byte("{bad json")); err == nil {
		t.Error("bad snapshot accepted")
	}
	// Empty snapshot yields a working manager.
	m3 := NewManager()
	if err := m3.Unmarshal([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := m3.Register(info(9, "x", 0, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBornSegment: a snapshot written before BlockInfo had
// BornSegment (these bytes are one) loads with the tag unknown, an
// untagged entry still serializes to those bytes, and a tag survives a
// round trip.
func TestSnapshotBornSegment(t *testing.T) {
	const old = `{"blocks":{"1":[{"tenant":1,"path":"a","min_ts":0,"max_ts":99,"rows":100,"bytes":1048576,"created_ms":99}]},"retention_ms":{}}`
	m := NewManager()
	if err := m.Unmarshal([]byte(old)); err != nil {
		t.Fatal(err)
	}
	if got := m.Blocks(1); len(got) != 1 || got[0].BornSegment != 0 || got[0] != info(1, "a", 0, 99) {
		t.Fatalf("old snapshot loaded as %+v", got)
	}
	if raw, err := m.Marshal(); err != nil || string(raw) != old {
		t.Fatalf("untagged entry serialized as %s (%v), want the old bytes", raw, err)
	}
	tagged := info(1, "b", 100, 199)
	tagged.BornSegment = 1<<63 + 5
	if err := m.Register(tagged); err != nil {
		t.Fatal(err)
	}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager()
	if err := m2.Unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	if got, _ := m2.Lookup("b"); got != tagged {
		t.Fatalf("tagged entry round-tripped as %+v, want %+v", got, tagged)
	}
}

func TestBlockPathLayout(t *testing.T) {
	p := BlockPath("request_log", 42, 1000, 7)
	if !strings.HasPrefix(p, TenantPrefix("request_log", 42)) {
		t.Errorf("block path %q not under tenant prefix %q", p, TenantPrefix("request_log", 42))
	}
	if !strings.HasSuffix(p, ".tar") {
		t.Errorf("block path %q should be a tar object", p)
	}
	// Chronological ordering: lexicographic order of paths follows ts.
	p2 := BlockPath("request_log", 42, 2000, 8)
	if !(p < p2) {
		t.Error("paths must sort chronologically")
	}
}

func TestManagerConcurrent(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tenant := int64(g % 4)
				b := info(tenant, BlockPath("t", tenant, int64(i), uint64(g*1000+i)), int64(i), int64(i)+10)
				if err := m.Register(b); err != nil {
					t.Error(err)
					return
				}
				m.Prune(tenant, 0, 100)
				m.Usage(tenant)
				m.Tenants()
			}
		}(g)
	}
	wg.Wait()
}

// checkIndex asserts the catalog's two invariants: byPath holds exactly
// the entries of the tenant lists, and every list is in (MinTS, Path)
// order with no tenant left holding an empty one.
func checkIndex(t *testing.T, m *Manager, step string) {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for tenant, list := range m.blocks {
		if len(list) == 0 {
			t.Fatalf("%s: tenant %d keeps an empty list", step, tenant)
		}
		for i, b := range list {
			n++
			if got, ok := m.byPath[b.Path]; !ok || got != b {
				t.Fatalf("%s: index has %+v (%v) for listed %+v", step, got, ok, b)
			}
			if b.Tenant != tenant {
				t.Fatalf("%s: %+v listed under tenant %d", step, b, tenant)
			}
			if i > 0 && !before(list[i-1], b) {
				t.Fatalf("%s: tenant %d out of order at %d: %+v then %+v", step, tenant, i, list[i-1], b)
			}
		}
	}
	if n != len(m.byPath) {
		t.Fatalf("%s: %d listed entries, %d indexed", step, n, len(m.byPath))
	}
}

// TestIndexMatchesListsUnderRandomOps drives Register, Replace, Remove
// and a Marshal/Unmarshal round trip at random over a small path space
// (so replacements, cross-tenant collisions and removals of absent
// paths all happen) and checks the index against a scan after each.
func TestIndexMatchesListsUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		randInfo := func(tenant int64) BlockInfo {
			minTS := rng.Int63n(50)
			return BlockInfo{
				Tenant: tenant, Path: fmt.Sprintf("p%d", rng.Intn(40)),
				MinTS: minTS, MaxTS: minTS + rng.Int63n(10), Bytes: 1 + rng.Int63n(1000),
			}
		}
		for step := 0; step < 400; step++ {
			tenant := rng.Int63n(4)
			var op string
			switch rng.Intn(8) {
			case 0, 1, 2:
				info := randInfo(tenant)
				owner, taken := m.Lookup(info.Path)
				err := m.Register(info)
				if wantErr := taken && owner.Tenant != tenant; (err != nil) != wantErr {
					t.Fatalf("seed %d step %d: Register(%+v) over %+v = %v", seed, step, info, owner, err)
				}
				if got, _ := m.Lookup(info.Path); err == nil && got != info {
					t.Fatalf("seed %d step %d: Lookup = %+v after Register(%+v)", seed, step, got, info)
				}
				op = "Register"
			case 3, 4:
				var remove []string
				for i := rng.Intn(4); i > 0; i-- {
					remove = append(remove, fmt.Sprintf("p%d", rng.Intn(40)))
				}
				var add []BlockInfo
				for i := rng.Intn(3); i > 0; i-- {
					add = append(add, randInfo(tenant))
				}
				prev := m.Blocks(tenant)
				if err := m.Replace(tenant, remove, add); err != nil {
					if !slices.Equal(prev, m.Blocks(tenant)) {
						t.Fatalf("seed %d step %d: failed Replace changed the catalog", seed, step)
					}
				} else {
					for _, a := range add {
						if !has(m, tenant, a.Path) {
							t.Fatalf("seed %d step %d: Replace lost %s", seed, step, a.Path)
						}
					}
				}
				op = "Replace"
			case 5, 6:
				path := fmt.Sprintf("p%d", rng.Intn(40))
				m.Remove(tenant, path)
				if has(m, tenant, path) {
					t.Fatalf("seed %d step %d: %s still registered after Remove", seed, step, path)
				}
				op = "Remove"
			default:
				raw, err := m.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				restored := NewManager()
				if err := restored.Unmarshal(raw); err != nil {
					t.Fatalf("seed %d step %d: Unmarshal of own snapshot: %v", seed, step, err)
				}
				for _, tn := range m.Tenants() {
					if !slices.Equal(m.Blocks(tn), restored.Blocks(tn)) {
						t.Fatalf("seed %d step %d: tenant %d differs after round trip", seed, step, tn)
					}
				}
				m = restored
				op = "Unmarshal"
			}
			checkIndex(t, m, fmt.Sprintf("seed %d step %d %s", seed, step, op))
		}
	}
}

// TestUnmarshalRejectsInconsistentSnapshot: a snapshot the index cannot
// represent exactly is refused and the catalog keeps its old content.
func TestUnmarshalRejectsInconsistentSnapshot(t *testing.T) {
	m := NewManager()
	if err := m.Register(info(1, "keep", 0, 9)); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string]string{
		"path twice":   `{"blocks":{"1":[{"tenant":1,"path":"a","min_ts":0,"max_ts":1},{"tenant":1,"path":"a","min_ts":2,"max_ts":3}]}}`,
		"two tenants":  `{"blocks":{"1":[{"tenant":1,"path":"a","min_ts":0,"max_ts":1}],"2":[{"tenant":2,"path":"a","min_ts":0,"max_ts":1}]}}`,
		"wrong list":   `{"blocks":{"1":[{"tenant":2,"path":"a","min_ts":0,"max_ts":1}]}}`,
		"empty path":   `{"blocks":{"1":[{"tenant":1,"path":"","min_ts":0,"max_ts":1}]}}`,
		"inverted":     `{"blocks":{"1":[{"tenant":1,"path":"a","min_ts":5,"max_ts":1}]}}`,
		"not json":     `{"blocks":`,
		"wrong shape":  `{"blocks":[1,2]}`,
		"tenant isn't": `{"blocks":{"x":[]}}`,
	} {
		if err := m.Unmarshal([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !has(m, 1, "keep") || len(m.Blocks(1)) != 1 {
			t.Fatalf("%s: a refused snapshot changed the catalog", name)
		}
		checkIndex(t, m, name)
	}
}

// TestUnmarshalRetentionRule: a snapshot's retention follows
// SetRetention's rule — zero or negative keeps the tenant's blocks
// forever — and one too long for a time.Duration (it would wrap
// negative) is refused. Before the rule, each of the three made Expired
// return every block of the tenant.
func TestUnmarshalRetentionRule(t *testing.T) {
	const block = `"blocks":{"1":[{"tenant":1,"path":"a","min_ts":100,"max_ts":200}]}`
	for name, ms := range map[string]string{"zero": "0", "negative": "-5000"} {
		m := NewManager()
		if err := m.Unmarshal([]byte(`{` + block + `,"retention_ms":{"1":` + ms + `}}`)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := m.Retention(1); d != 0 {
			t.Errorf("%s: retention %v, want 0 (forever)", name, d)
		}
		if exp := m.Expired(300); len(exp) != 0 {
			t.Errorf("%s: Expired(300) = %+v, want nothing", name, exp)
		}
	}
	m := NewManager()
	if err := m.Register(info(1, "keep", 0, 9)); err != nil {
		t.Fatal(err)
	}
	m.SetRetention(1, time.Hour)
	for _, ms := range []int64{maxRetentionMS + 1, math.MaxInt64} {
		raw := fmt.Sprintf(`{%s,"retention_ms":{"1":%d}}`, block, ms)
		if err := m.Unmarshal([]byte(raw)); err == nil {
			t.Errorf("retention %d ms: accepted", ms)
		}
		if !has(m, 1, "keep") || m.Retention(1) != time.Hour || len(m.Expired(300)) != 0 {
			t.Fatalf("retention %d ms: a refused snapshot changed the catalog", ms)
		}
	}
	raw := fmt.Sprintf(`{%s,"retention_ms":{"1":%d}}`, block, maxRetentionMS)
	if err := m.Unmarshal([]byte(raw)); err != nil {
		t.Fatalf("retention %d ms, the longest a duration holds: %v", maxRetentionMS, err)
	}
	if exp := m.Expired(300); len(exp) != 0 {
		t.Errorf("longest retention: Expired(300) = %+v, want nothing", exp)
	}
}
