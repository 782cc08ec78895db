// Package metrics provides the lightweight runtime instrumentation that
// LogStore's hotspot monitor and the experiment harness rely on: atomic
// counters, gauges, windowed rate meters, and latency histograms.
//
// The flow-control monitor (internal/flow) samples tenant, shard, and
// worker traffic through these primitives; the benchmark harness uses the
// histograms to report the latency distributions from the paper's
// evaluation section.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Rate measures events per second over a sliding window of fixed-width
// buckets. It is safe for concurrent use.
type Rate struct {
	mu         sync.Mutex
	buckets    []int64
	bucketSpan time.Duration
	head       int   // index of the current bucket
	headStart  int64 // unix nanos of the start of the head bucket
	now        func() time.Time
}

// NewRate returns a rate meter with the given number of buckets each
// spanning span. The effective window is buckets*span.
func NewRate(buckets int, span time.Duration) *Rate {
	if buckets < 1 {
		buckets = 1
	}
	if span <= 0 {
		span = time.Second
	}
	r := &Rate{
		buckets:    make([]int64, buckets),
		bucketSpan: span,
		now:        time.Now,
	}
	r.headStart = r.now().UnixNano()
	return r
}

// SetClock overrides the time source; used by deterministic simulations
// and tests.
func (r *Rate) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
	r.headStart = now().UnixNano()
}

// advance rotates the ring so the head bucket covers the current time.
// Caller must hold mu.
func (r *Rate) advance() {
	r.advanceTo(r.now().UnixNano())
}

// advanceTo rotates the ring to cover an externally-read timestamp.
// Caller must hold mu.
func (r *Rate) advanceTo(nowNS int64) {
	span := int64(r.bucketSpan)
	steps := (nowNS - r.headStart) / span
	if steps <= 0 {
		return
	}
	if steps >= int64(len(r.buckets)) {
		for i := range r.buckets {
			r.buckets[i] = 0
		}
		r.head = 0
		r.headStart = nowNS - nowNS%span
		return
	}
	for i := int64(0); i < steps; i++ {
		r.head = (r.head + 1) % len(r.buckets)
		r.buckets[r.head] = 0
	}
	r.headStart += steps * span
}

// AddAt records n events at nowNS (unix nanoseconds), a time the
// caller read once for several meters — the traffic collector touches a
// tenant, a shard and a worker meter for every append. The meters
// should share a time source.
func (r *Rate) AddAt(nowNS int64, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceTo(nowNS)
	r.buckets[r.head] += n
}

// Add records n events at the current time.
func (r *Rate) Add(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance()
	r.buckets[r.head] += n
}

// PerSecond returns the average events per second over the window.
func (r *Rate) PerSecond() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance()
	var total int64
	for _, b := range r.buckets {
		total += b
	}
	window := time.Duration(len(r.buckets)) * r.bucketSpan
	return float64(total) / window.Seconds()
}

// Total returns the raw event count currently inside the window.
func (r *Rate) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance()
	var total int64
	for _, b := range r.buckets {
		total += b
	}
	return total
}

// Histogram collects observations and reports quantiles. It keeps raw
// samples up to a cap, then switches to reservoir sampling so memory stays
// bounded during long experiments.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	seen    int64
	maxKeep int
	rng     uint64
	sum     float64
	min     float64
	max     float64
}

// NewHistogram returns a histogram keeping at most maxKeep samples
// (reservoir-sampled beyond that). maxKeep <= 0 selects a default of 65536.
func NewHistogram(maxKeep int) *Histogram {
	if maxKeep <= 0 {
		maxKeep = 65536
	}
	return &Histogram{
		maxKeep: maxKeep,
		rng:     0x9E3779B97F4A7C15,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// xorshift64 advances the internal PRNG; deterministic, lock held by caller.
func (h *Histogram) xorshift64() uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seen++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.maxKeep {
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir sampling: replace a random slot with probability keep/seen.
	if idx := h.xorshift64() % uint64(h.seen); idx < uint64(h.maxKeep) {
		h.samples[idx] = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seen
}

// Mean returns the mean of all observations (not just retained samples).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == 0 {
		return 0
	}
	return h.sum / float64(h.seen)
}

// Min returns the smallest observation, or 0 if none.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if none.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-th quantile (0 <= q <= 1) over retained samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(h.samples))
	copy(sorted, h.samples)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := q * float64(len(sorted)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantiles returns several quantiles at once, sorting only once.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(qs))
	if len(h.samples) == 0 {
		return out
	}
	sorted := make([]float64, len(h.samples))
	copy(sorted, h.samples)
	sort.Float64s(sorted)
	for i, q := range qs {
		switch {
		case q <= 0:
			out[i] = sorted[0]
		case q >= 1:
			out[i] = sorted[len(sorted)-1]
		default:
			idx := q * float64(len(sorted)-1)
			lo := int(idx)
			frac := idx - float64(lo)
			if lo+1 >= len(sorted) {
				out[i] = sorted[lo]
			} else {
				out[i] = sorted[lo]*(1-frac) + sorted[lo+1]*frac
			}
		}
	}
	return out
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.seen = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Stddev computes the population standard deviation of xs; it is used by
// the load-balancing experiments (Figure 13) to measure access skew.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}
