package oss

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestMemStoreCRUD(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("a/b/1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b/1")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	info, err := s.Head("a/b/1")
	if err != nil || info.Size != 5 {
		t.Fatalf("Head = %+v, %v", info, err)
	}
	if err := s.Delete("a/b/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a/b/1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object Get err = %v, want ErrNotFound", err)
	}
	// Deleting a missing key is fine.
	if err := s.Delete("never-existed"); err != nil {
		t.Fatal(err)
	}
	// Empty key rejected.
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("empty key should error")
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	data := []byte("mutable")
	if err := s.Put("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // caller mutates after Put
	got, _ := s.Get("k")
	if string(got) != "mutable" {
		t.Error("Put must copy its input")
	}
	got[0] = 'Y' // caller mutates the returned slice
	again, _ := s.Get("k")
	if string(again) != "mutable" {
		t.Error("Get must return a copy")
	}
}

func TestMemStoreGetRange(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRange("k", 2, 3)
	if err != nil || string(got) != "234" {
		t.Fatalf("GetRange = %q, %v", got, err)
	}
	// size -1 = to end.
	got, err = s.GetRange("k", 7, -1)
	if err != nil || string(got) != "789" {
		t.Fatalf("GetRange to end = %q, %v", got, err)
	}
	// Bounds.
	if _, err := s.GetRange("k", -1, 2); err == nil {
		t.Error("negative offset should error")
	}
	if _, err := s.GetRange("k", 5, 100); err == nil {
		t.Error("overlong range should error")
	}
	if _, err := s.GetRange("missing", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Error("missing key should be ErrNotFound")
	}
	// Zero-length read at the end boundary is legal.
	got, err = s.GetRange("k", 10, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty tail range = %q, %v", got, err)
	}
}

func TestMemStoreList(t *testing.T) {
	s := NewMemStore()
	for _, k := range []string{"tenant/1/block2", "tenant/1/block1", "tenant/2/block1", "other"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := s.List("tenant/1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Key != "tenant/1/block1" || infos[1].Key != "tenant/1/block2" {
		t.Errorf("List = %+v", infos)
	}
	all, _ := s.List("")
	if len(all) != 4 {
		t.Errorf("List(\"\") = %d objects", len(all))
	}
	none, _ := s.List("zzz")
	if len(none) != 0 {
		t.Errorf("List(zzz) = %+v", none)
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := string(rune('a' + id))
			for j := 0; j < 100; j++ {
				if err := s.Put(key, []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.List(""); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCountingStore(t *testing.T) {
	s := NewCountingStore(NewMemStore(), nil)
	if err := s.Put("k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRange("k", 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Head("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(""); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts.Value() != 1 || st.Gets.Value() != 1 || st.RangeGets.Value() != 1 ||
		st.Heads.Value() != 1 || st.Lists.Value() != 1 || st.Deletes.Value() != 1 {
		t.Errorf("op counters wrong: %+v", st)
	}
	if st.BytesIn.Value() != 100 {
		t.Errorf("BytesIn = %d", st.BytesIn.Value())
	}
	if st.BytesOut.Value() != 110 {
		t.Errorf("BytesOut = %d", st.BytesOut.Value())
	}
}

func TestSimStoreBehavesLikeStore(t *testing.T) {
	s := NewSimStore(NewMemStore(), LatencyModel{RequestLatency: time.Microsecond}, 1)
	if err := s.Put("k", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "abcdef" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	rng, err := s.GetRange("k", 1, 2)
	if err != nil || string(rng) != "bc" {
		t.Fatalf("GetRange = %q, %v", rng, err)
	}
	if _, err := s.Head("k"); err != nil {
		t.Fatal(err)
	}
	if infos, err := s.List(""); err != nil || len(infos) != 1 {
		t.Fatalf("List = %+v, %v", infos, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
}

func TestSimStoreAddsLatency(t *testing.T) {
	mem := NewMemStore()
	if err := mem.Put("k", bytes.Repeat([]byte("x"), 1000)); err != nil {
		t.Fatal(err)
	}
	sim := NewSimStore(mem, LatencyModel{RequestLatency: 5 * time.Millisecond}, 1)
	start := time.Now()
	if _, err := sim.Get("k"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("Get took %v, model demands >= 5ms", elapsed)
	}
}

func TestSimStoreBandwidth(t *testing.T) {
	mem := NewMemStore()
	big := bytes.Repeat([]byte("y"), 1<<20) // 1 MiB
	if err := mem.Put("k", big); err != nil {
		t.Fatal(err)
	}
	// 10 MiB/s => 1 MiB takes ~100ms.
	sim := NewSimStore(mem, LatencyModel{BandwidthBytesPerSec: 10 << 20}, 1)
	start := time.Now()
	if _, err := sim.Get("k"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("1MiB at 10MiB/s took %v, want >= ~100ms", elapsed)
	}
}

func TestSimStoreConcurrencyLimit(t *testing.T) {
	mem := NewMemStore()
	if err := mem.Put("k", []byte("z")); err != nil {
		t.Fatal(err)
	}
	sim := NewSimStore(mem, LatencyModel{RequestLatency: 10 * time.Millisecond, MaxConcurrent: 2}, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sim.Head("k"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// 6 ops, 2 at a time, 10ms each => >= ~30ms.
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("6 ops with MaxConcurrent=2 took %v, want >= ~30ms", elapsed)
	}
}

func TestObjectFetcher(t *testing.T) {
	mem := NewMemStore()
	if err := mem.Put("obj", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f := ObjectFetcher{Store: mem, Key: "obj"}
	got, err := f.Fetch(3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	if _, err := f.Fetch(8, 10); err == nil {
		t.Error("out-of-range fetch should error")
	}
	if size, err := f.Size(); err != nil || size != 10 {
		t.Errorf("Size = %d, %v; want 10", size, err)
	}
	if _, err := (ObjectFetcher{Store: mem, Key: "missing"}).Size(); err == nil {
		t.Error("Size of a missing object should error")
	}
}
