package main

import (
	"errors"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	logstore "logstore"
)

// Every workload runs warm-up, then the measured interval split into
// windows; throughput is the median window's rate, so one stalled
// window (an archive cycle, a GC) does not set the figure.
const (
	warmup  = 2 * time.Second
	windows = 5
)

// snapshot is the process- and cluster-wide state read at the two ends
// of the measured interval. Everything in it comes from public
// accessors, the Go runtime, or the kernel.
type snapshot struct {
	at         time.Time
	cpu        time.Duration // user+sys of this process
	faults     int64         // minor page faults of this process
	store      storeCounts
	memHits    int64
	memMisses  int64
	diskHits   int64
	diskMisses int64
	groups     int64 // raft proposals issued by the shard coalescers
	batches    int64 // tenant sub-batches those carried
	mem        runtime.MemStats
	diskWrite  int64 // bytes this process caused to be written to storage
}

// processUsage returns this process's user+sys CPU time and its count
// of minor page faults.
func processUsage() (cpu time.Duration, faults int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Minflt
}

// diskWriteBytes reads write_bytes from /proc/self/io (0 where the
// kernel does not provide it).
func diskWriteBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}

func takeSnapshot(e *env) snapshot {
	s := snapshot{at: time.Now(), store: e.store.counts(), diskWrite: diskWriteBytes()}
	s.cpu, s.faults = processUsage()
	for _, id := range e.c.WorkerIDs() {
		if w, ok := e.c.Worker(id); ok {
			mh, mm, dh, dm := w.CacheStats()
			s.memHits += mh
			s.memMisses += mm
			s.diskHits += dh
			s.diskMisses += dm
		}
	}
	s.groups, s.batches = e.c.CoalesceStats()
	runtime.ReadMemStats(&s.mem)
	return s
}

// opLog collects one client's samples; each client goroutine owns one.
type opLog struct {
	samples []sample
}

func (l *opLog) record(s sample) { l.samples = append(l.samples, s) }

// client is one load-generating goroutine. It issues operations until
// stop reports true and records each outcome in log.
type client func(stop func() bool, log *opLog)

// interval is what one measured interval yields.
type interval struct {
	before, after snapshot
	// logs holds every sample of the run, per client, warm-up included.
	logs []*opLog
	// goroutinesPeak and heapPeak are sampled every 100 ms.
	goroutinesPeak int
	heapPeak       uint64
}

// measure starts the clients, lets them warm up, snapshots, runs the
// measured interval, snapshots again, and stops them. Clients already
// inside an operation at the end finish it; their late samples fall
// outside the interval and are not counted in it.
func measure(e *env, dur time.Duration, clients []client) *interval {
	iv := &interval{logs: make([]*opLog, len(clients))}
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for i, c := range clients {
		iv.logs[i] = &opLog{}
		wg.Add(1)
		go func(c client, log *opLog) {
			defer wg.Done()
			c(stopped.Load, log)
		}(c, iv.logs[i])
	}
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var mem runtime.MemStats
		for !stopped.Load() {
			if n := runtime.NumGoroutine(); n > iv.goroutinesPeak {
				iv.goroutinesPeak = n
			}
			if e.tracer != nil {
				// ReadMemStats stops the world; only the traced run pays.
				runtime.ReadMemStats(&mem)
				if mem.HeapInuse > iv.heapPeak {
					iv.heapPeak = mem.HeapInuse
				}
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()
	time.Sleep(warmup)
	iv.before = takeSnapshot(e)
	// A traced run records spans in the even windows only; the odd ones
	// are its own untraced reference for the tracing overhead.
	for w := 0; w < windows; w++ {
		e.setTracing(w%2 == 0)
		time.Sleep(dur / windows)
	}
	e.setTracing(true) // the ladder records too
	iv.after = takeSnapshot(e)
	stopped.Store(true)
	wg.Wait()
	<-samplerDone
	return iv
}

// inInterval returns the samples of the given clients that completed
// inside the measured interval, in completion order.
func (iv *interval) inInterval(clients ...int) []sample {
	logs := make([]*opLog, len(clients))
	for i, ci := range clients {
		logs[i] = iv.logs[ci]
	}
	return iv.within(logs...)
}

// within is inInterval for logs kept outside the client list (a client
// that issues two kinds of operation keeps one log per kind).
func (iv *interval) within(logs ...*opLog) []sample {
	var out []sample
	for _, log := range logs {
		for _, s := range log.samples {
			if !s.end.Before(iv.before.at) && s.end.Before(iv.after.at) {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].end.Before(out[j].end) })
	return out
}

// tracedSplit separates the clients' successful samples inside the
// interval into those that completed in traced (even) windows and in
// untraced (odd) ones.
func (iv *interval) tracedSplit(clients ...int) (on, off []sample) {
	win := iv.after.at.Sub(iv.before.at) / windows
	for _, s := range iv.inInterval(clients...) {
		if !s.ok {
			continue
		}
		if w := int(s.end.Sub(iv.before.at) / win); w%2 == 0 {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	return on, off
}

// opStats is the end-to-end view of one kind of client operation.
type opStats struct {
	N      int `json:"samples"`
	Failed int `json:"failed"`
	// PerSec is successful operations over the whole interval. (The
	// median window would shrug off one stalled window, but a window
	// holds few enough operations that its count is a coarse number.)
	PerSec    float64   `json:"per_s"`
	Windows   []float64 `json:"window_per_s"`
	P50ms     float64   `json:"p50_ms"` // over successful ops
	TailMS    float64   `json:"tail_ms"`
	TailPct   float64   `json:"tail_pct"` // the percentile TailMS is taken at
	LateP99ms float64   `json:"late_p99_ms"`
	// Pcts are plain percentiles of the latency, for reading the shape
	// of the distribution; a high one may rest on very few samples.
	Pcts map[string]float64 `json:"percentiles_ms"`
}

// summarizeOps reduces the interval's samples for one operation kind.
func summarizeOps(samples []sample, start, end time.Time) opStats {
	var st opStats
	win := end.Sub(start) / windows
	counts := make([]float64, windows)
	var lat, late []float64
	for _, s := range samples {
		st.N++
		if !s.ok {
			st.Failed++
			continue
		}
		if w := int(s.end.Sub(start) / win); w >= 0 && w < windows {
			counts[w]++
		}
		lat = append(lat, ms(s.latency))
		late = append(late, ms(s.late))
	}
	for _, c := range counts {
		st.Windows = append(st.Windows, c/win.Seconds())
	}
	st.PerSec = float64(len(lat)) / end.Sub(start).Seconds()
	sort.Float64s(lat)
	sort.Float64s(late)
	st.P50ms = quantile(lat, 0.5)
	st.TailMS, st.TailPct = tail(lat, 99)
	st.LateP99ms, _ = tail(late, 99)
	st.Pcts = map[string]float64{
		"p75": quantile(lat, 0.75), "p90": quantile(lat, 0.90), "p95": quantile(lat, 0.95),
		"p98": quantile(lat, 0.98), "p99": quantile(lat, 0.99), "max": quantile(lat, 1),
	}
	return st
}

// fanOut runs fn on n goroutines and returns the first error by index.
// Set-up uses it for work that is mostly object-store sleep.
func fanOut(n int, fn func(g int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = fn(g)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// flushParallel archives every resident row, one goroutine per worker.
// Cluster.Flush does the same work worker after worker; against a store
// that sleeps 2 ms per Put that triples set-up time for nothing.
func flushParallel(c *logstore.Cluster) error {
	ids := c.WorkerIDs()
	return fanOut(len(ids), func(g int) error {
		w, ok := c.Worker(ids[g])
		if !ok {
			return nil
		}
		for _, sid := range w.Shards() {
			if err := w.FlushShard(sid); err != nil {
				return err
			}
		}
		return nil
	})
}
