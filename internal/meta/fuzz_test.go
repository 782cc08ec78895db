package meta

import (
	"bytes"
	"maps"
	"reflect"
	"testing"
	"time"
)

// FuzzCatalogUnmarshal feeds arbitrary bytes to Unmarshal, the decode
// of the catalog checkpoint a controller recovers from. It must never
// panic. A rejected snapshot leaves the catalog as it was; an accepted
// one yields a catalog whose path index matches its lists, whose lists
// are sorted, whose retentions are all positive, and which survives a
// Marshal → Unmarshal round trip unchanged.
func FuzzCatalogUnmarshal(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"blocks":{"1":[{"tenant":1,"path":"a","min_ts":1,"max_ts":2}]},"retention_ms":{"1":60000}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewManager()
		if err := m.Register(info(1, "keep", 0, 9)); err != nil {
			t.Fatal(err)
		}
		m.SetRetention(1, time.Hour)
		prior, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Unmarshal(data); err != nil {
			if now, _ := m.Marshal(); !bytes.Equal(now, prior) {
				t.Fatalf("rejected snapshot (%v) changed the catalog:\n%s\nto\n%s", err, prior, now)
			}
			return
		}
		checkIndex(t, m, "accepted snapshot")
		for tenant, d := range m.retention {
			if d <= 0 {
				t.Fatalf("tenant %d keeps retention %v", tenant, d)
			}
		}
		raw, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		again := NewManager()
		if err := again.Unmarshal(raw); err != nil {
			t.Fatalf("own snapshot rejected: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(again.blocks, m.blocks) || !maps.Equal(again.retention, m.retention) {
			t.Fatalf("round trip changed the catalog:\n%s", raw)
		}
	})
}
