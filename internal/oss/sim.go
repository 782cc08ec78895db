package oss

import (
	"math/rand"
	"sync"
	"time"
)

// LatencyModel describes the performance envelope of a simulated object
// store: a fixed per-request round trip plus transfer time bounded by
// bandwidth, with multiplicative jitter. Defaults approximate a same-
// region object store scaled down so experiments finish quickly while
// preserving the paper's local-vs-remote gap.
type LatencyModel struct {
	// RequestLatency is the per-operation round-trip time.
	RequestLatency time.Duration
	// BandwidthBytesPerSec caps transfer throughput; 0 = unlimited.
	BandwidthBytesPerSec int64
	// JitterFrac adds ±frac uniform noise to each delay (0 = none).
	JitterFrac float64
	// MaxConcurrent limits in-flight operations; extra callers queue.
	// 0 = unlimited. Real object stores throttle per-connection, which
	// is what makes parallel prefetch with a bounded pool interesting.
	MaxConcurrent int
}

// DefaultLatencyModel returns a model roughly mimicking same-region OSS
// access at millisecond scale: 2 ms RTT, 200 MB/s, 20% jitter.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		RequestLatency:       2 * time.Millisecond,
		BandwidthBytesPerSec: 200 << 20,
		JitterFrac:           0.2,
		MaxConcurrent:        64,
	}
}

// SimStore wraps a Store and injects the latency model on every
// operation. It is safe for concurrent use.
type SimStore struct {
	inner Store
	model LatencyModel

	mu  sync.Mutex
	rng *rand.Rand
	sem chan struct{}
}

// NewSimStore wraps inner with the given model.
func NewSimStore(inner Store, model LatencyModel, seed int64) *SimStore {
	s := &SimStore{
		inner: inner,
		model: model,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if model.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, model.MaxConcurrent)
	}
	return s
}

// delay sleeps for the simulated duration of an operation transferring
// n bytes.
func (s *SimStore) delay(n int64) {
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	d := s.model.RequestLatency
	if s.model.BandwidthBytesPerSec > 0 && n > 0 {
		d += time.Duration(float64(n) / float64(s.model.BandwidthBytesPerSec) * float64(time.Second))
	}
	if s.model.JitterFrac > 0 {
		s.mu.Lock()
		j := 1 + (s.rng.Float64()*2-1)*s.model.JitterFrac
		s.mu.Unlock()
		d = time.Duration(float64(d) * j)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Put implements Store.
func (s *SimStore) Put(key string, data []byte) error {
	s.delay(int64(len(data)))
	return s.inner.Put(key, data)
}

// Get implements Store.
func (s *SimStore) Get(key string) ([]byte, error) {
	info, err := s.inner.Head(key)
	if err != nil {
		s.delay(0)
		return nil, err
	}
	s.delay(info.Size)
	return s.inner.Get(key)
}

// GetRange implements Store.
func (s *SimStore) GetRange(key string, off, size int64) ([]byte, error) {
	data, err := s.inner.GetRange(key, off, size)
	s.delay(int64(len(data)))
	return data, err
}

// Head implements Store.
func (s *SimStore) Head(key string) (ObjectInfo, error) {
	s.delay(0)
	return s.inner.Head(key)
}

// List implements Store.
func (s *SimStore) List(prefix string) ([]ObjectInfo, error) {
	s.delay(0)
	return s.inner.List(prefix)
}

// Delete implements Store.
func (s *SimStore) Delete(key string) error {
	s.delay(0)
	return s.inner.Delete(key)
}

// ObjectFetcher adapts one object in a Store to the logblock.Fetcher
// contract (ranged reads addressed by offset/size).
type ObjectFetcher struct {
	Store Store
	Key   string
}

// Fetch reads [off, off+size) of the object.
func (f ObjectFetcher) Fetch(off, size int64) ([]byte, error) {
	return f.Store.GetRange(f.Key, off, size)
}

// Size returns the object's size, from one Head.
func (f ObjectFetcher) Size() (int64, error) {
	info, err := f.Store.Head(f.Key)
	return info.Size, err
}
