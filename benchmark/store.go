package main

import (
	"context"
	"sync/atomic"
	"time"

	"logstore/internal/oss"
)

// meteredStore is the oss.Store handed to the cluster as Config.Store.
// It always counts requests and bytes (the end-to-end run needs them
// for its validity checks) and, when a recorder is attached, records
// one span per call, parented to the request whose context reached it.
// It forwards contexts so a wrapped chain stays cancellable.
type meteredStore struct {
	inner oss.Store
	rec   atomic.Pointer[recorder] // nil in the untraced run and during set-up

	puts, putBytes  atomic.Int64
	gets, rangeGets atomic.Int64
	heads           atomic.Int64
	bytesOut        atomic.Int64
	busyNS          atomic.Int64 // summed call time of reads
}

// storeCounts is a point-in-time copy of the counters.
type storeCounts struct {
	puts, putBytes, gets, rangeGets, heads, bytesOut, busyNS int64
}

func (s *meteredStore) counts() storeCounts {
	return storeCounts{
		puts: s.puts.Load(), putBytes: s.putBytes.Load(),
		gets: s.gets.Load(), rangeGets: s.rangeGets.Load(), heads: s.heads.Load(),
		bytesOut: s.bytesOut.Load(), busyNS: s.busyNS.Load(),
	}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{
		puts: a.puts - b.puts, putBytes: a.putBytes - b.putBytes,
		gets: a.gets - b.gets, rangeGets: a.rangeGets - b.rangeGets, heads: a.heads - b.heads,
		bytesOut: a.bytesOut - b.bytesOut, busyNS: a.busyNS - b.busyNS,
	}
}

func (s *meteredStore) observe(ctx context.Context, name string, start time.Time, read bool) {
	end := time.Now()
	if read {
		s.busyNS.Add(end.Sub(start).Nanoseconds())
	}
	if rec := s.rec.Load(); rec != nil {
		parent := spanFrom(ctx)
		rec.add(parent, parent, name, start, end)
	}
}

// Put implements oss.Store.
func (s *meteredStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(key, data)
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	s.observe(context.Background(), "oss.Put", start, false)
	return err
}

// Get implements oss.Store.
func (s *meteredStore) Get(key string) ([]byte, error) {
	return s.GetContext(context.Background(), key)
}

// GetContext implements oss.ContextStore.
func (s *meteredStore) GetContext(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	data, err := oss.GetContext(ctx, s.inner, key)
	s.gets.Add(1)
	s.bytesOut.Add(int64(len(data)))
	s.observe(ctx, "oss.Get", start, true)
	return data, err
}

// GetRange implements oss.Store.
func (s *meteredStore) GetRange(key string, off, size int64) ([]byte, error) {
	return s.GetRangeContext(context.Background(), key, off, size)
}

// GetRangeContext implements oss.ContextStore.
func (s *meteredStore) GetRangeContext(ctx context.Context, key string, off, size int64) ([]byte, error) {
	start := time.Now()
	data, err := oss.GetRangeContext(ctx, s.inner, key, off, size)
	s.rangeGets.Add(1)
	s.bytesOut.Add(int64(len(data)))
	s.observe(ctx, "oss.GetRange", start, true)
	return data, err
}

// Head implements oss.Store.
func (s *meteredStore) Head(key string) (oss.ObjectInfo, error) {
	return s.HeadContext(context.Background(), key)
}

// HeadContext implements oss.ContextStore.
func (s *meteredStore) HeadContext(ctx context.Context, key string) (oss.ObjectInfo, error) {
	start := time.Now()
	info, err := oss.HeadContext(ctx, s.inner, key)
	s.heads.Add(1)
	s.observe(ctx, "oss.Head", start, true)
	return info, err
}

// List implements oss.Store.
func (s *meteredStore) List(prefix string) ([]oss.ObjectInfo, error) { return s.inner.List(prefix) }

// Delete implements oss.Store.
func (s *meteredStore) Delete(key string) error { return s.inner.Delete(key) }
