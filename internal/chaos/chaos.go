// Package chaos is the seeded load-and-fault driver behind every
// robustness gate: the node-failure and disk-wipe chaos runs, the
// brownout, and the sustained-load soak. One Run starts multi-tenant
// ingest under a retry-until-acked ledger, COUNT(*) readers, an
// optional read audit and a memory sampler, then plays a schedule of
// steps. Each step opens its faults together, holds them, and heals
// them; the readers record latency per step. The ledger is what
// VerifyCounts holds the cluster to afterwards: every acked row counted
// exactly once, through whatever the schedule did.
//
// The package talks to the cluster through the structural Target
// interface so it can run against the top-level logstore.Cluster (which
// satisfies it directly) without an import cycle from the root
// package's own tests.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"logstore/internal/backpressure"
	"logstore/internal/flow"
	"logstore/internal/metrics"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// Target is the traffic and fault-injection surface the driver needs
// from a cluster. *logstore.Cluster satisfies it.
type Target interface {
	AppendContext(ctx context.Context, rows ...schema.Row) error
	QueryContext(ctx context.Context, sql string) (*query.Result, error)
	ShardIDs() []flow.ShardID
	WorkerIDs() []flow.WorkerID
	CrashWorker(id flow.WorkerID) error
	CrashWorkerWipeDisk(id flow.WorkerID) error
	RecoverWorker(id flow.WorkerID) error
	SlowShardApply(s flow.ShardID, d time.Duration) error
	MemoryProxy() int64
}

// Kind names one fault of the schedule's vocabulary.
type Kind int

const (
	// Crash kills a worker; healing rebuilds it from its raft WALs.
	Crash Kind = iota
	// Wipe kills a worker and destroys its raft WALs and SSD cache, so
	// healing must hydrate every hosted shard from the shipped WAL on
	// object storage (the cluster needs DataDir and WAL shipping).
	Wipe
	// SlowApply lags a shard's apply by Delay per entry.
	SlowApply
	// Hook calls Inject to open a fault the driver cannot reach itself
	// (a stalled object store, say) and Heal to close it.
	Hook
	// Flood appends Rows-row batches for Tenant back to back, honouring
	// ErrOverloaded.RetryAfter; a shed batch is retried until admitted.
	Flood
)

var kindNames = [...]string{"crash", "wipe", "slow apply", "hook", "flood"}

func (k Kind) String() string { return kindNames[k] }

func (f Fault) String() string {
	switch f.Kind {
	case Crash, Wipe:
		return fmt.Sprintf("%v worker %d", f.Kind, f.Worker)
	case Flood:
		return fmt.Sprintf("flood tenant %d", f.Tenant)
	}
	return fmt.Sprintf("%v shard %d", f.Kind, f.Shard)
}

// Fault is one entry of a schedule. Only the fields its Kind names are
// read.
type Fault struct {
	Kind   Kind
	Worker flow.WorkerID
	Shard  flow.ShardID
	Delay  time.Duration
	Tenant int64
	Rows   int
	Inject func()
	Heal   func()
}

// Step opens its faults together, leaves them open for Hold while the
// traffic runs, then heals them. A step without faults is a phase of
// plain traffic.
type Step struct {
	Faults []Fault
	Hold   time.Duration
}

// Shuffled is the seeded node-failure mix: counts[k] faults of each of
// Crash and Wipe with round-robin workers, in an order shuffled by
// seed.
func Shuffled(seed int64, workers []flow.WorkerID, counts map[Kind]int) []Fault {
	var out []Fault
	for i := 0; i < counts[Crash]; i++ {
		out = append(out, Fault{Kind: Crash, Worker: workers[i%len(workers)]})
	}
	for i := 0; i < counts[Wipe]; i++ {
		// Offset so wipes and plain crashes don't always hit the same
		// worker first.
		out = append(out, Fault{Kind: Wipe, Worker: workers[(i+1)%len(workers)]})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// OneAtATime schedules faults one by one: each is held for hold, then
// traffic runs for hold/2 with nothing open before the next.
func OneAtATime(faults []Fault, hold time.Duration) []Step {
	var steps []Step
	for _, f := range faults {
		steps = append(steps, Step{Faults: []Fault{f}, Hold: hold}, Step{Hold: hold / 2})
	}
	return steps
}

// Config parameterizes one run.
type Config struct {
	// Seed fixes the traffic: writer i's generator is seeded Seed+i and
	// its timestamps start at 1_000 + i·10⁹, so no two writers can send
	// byte-identical batches (the ingest path dedups by content).
	Seed int64
	// Tenants and Theta shape the zipfian tenant draw.
	Tenants int
	Theta   float64
	// Writers append BatchRows-row batches, WritePace apart.
	Writers   int
	BatchRows int
	WritePace time.Duration
	// Readers cycle through Queries (nil = COUNT(*) per tenant), reader
	// i starting at i·37, QueryPace apart. QueryDeadline, when positive,
	// bounds each attempt.
	Readers       int
	Queries       []string
	QueryPace     time.Duration
	QueryDeadline time.Duration
	// Audit, when positive, starts a reader that holds tenants
	// 0..Audit-1 (the hottest) to the ledger while rows move: a count
	// may not exceed the rows sent by the query's end, nor fall below
	// the tenant's previous count.
	Audit int
	// Preload rows per tenant, drawn from writer 0's stream, are
	// appended before the traffic starts, then Settle (may be nil) runs,
	// e.g. to archive them.
	Preload int
	Settle  func() error
	// Schedule is played in order while the traffic runs.
	Schedule []Step
	// Logf, when set, receives progress lines (testing.T.Logf fits).
	Logf func(format string, args ...any)
}

// Phase is the readers' record of one schedule step.
type Phase struct {
	Queries  atomic.Int64       // answered
	Failures atomic.Int64       // failed attempts
	Latency  *metrics.Histogram // ms per answered query
}

// Report is the traffic ledger and what the run measured.
type Report struct {
	// Acked maps tenant → rows acknowledged by Append: the rows
	// VerifyCounts holds the cluster to.
	Acked      map[int64]int64
	AckedTotal int64
	Batches    int64
	// AppendRetries counts failed Append attempts retried with the same
	// rows (the dedup path under test); flood sheds are not included.
	AppendRetries int64
	AppendLatency *metrics.Histogram // ms per acked batch
	Phases        []*Phase           // one per schedule step
	Audits        int64
	// Shed and FloodAcked count the flood's rejected attempts and its
	// admitted rows.
	Shed, FloodAcked int64
	MaxMemory        int64 // peak MemoryProxy
	Injected         map[Kind]int
	Elapsed          time.Duration
}

// Queries is how many queries the readers got answered.
func (r *Report) Queries() int64 {
	var n int64
	for _, p := range r.Phases {
		n += p.Queries.Load()
	}
	return n
}

// Retry windows: a batch must be acked, and a query answered, within
// these or the run fails.
const (
	appendWindow = 60 * time.Second
	queryWindow  = 10 * time.Second
)

type driver struct {
	tg    Target
	cfg   Config
	logf  func(string, ...any)
	stop  atomic.Bool // set once the schedule is over
	wg    sync.WaitGroup
	phase atomic.Int32

	mu   sync.Mutex // guards rep's counters and ledger, sent, errs and err
	rep  *Report
	sent map[int64]int64 // rows handed to Append, audited tenants only
	errs int
	err  error
}

// Run plays cfg.Schedule against tg while the traffic runs, then heals
// everything again and stops the traffic. A non-nil error means the
// contract was broken: a batch never acked, a query never answered, an
// audited count out of range, or a fault that could not be opened or
// healed.
func Run(tg Target, cfg Config) (*Report, error) {
	d := &driver{tg: tg, cfg: cfg, logf: cfg.Logf, sent: map[int64]int64{}}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	rep := &Report{Acked: map[int64]int64{}, AppendLatency: metrics.NewHistogram(0), Injected: map[Kind]int{}}
	d.rep = rep
	for range cfg.Schedule {
		rep.Phases = append(rep.Phases, &Phase{Latency: metrics.NewHistogram(0)})
	}
	if len(rep.Phases) == 0 || (cfg.Preload > 0 && cfg.Writers == 0) {
		return rep, fmt.Errorf("chaos: empty schedule, or a preload without a writer to draw it")
	}
	gens := make([]*workload.Generator, cfg.Writers)
	for i := range gens {
		gens[i] = generator(cfg.Tenants, cfg.Theta, cfg.Seed+int64(i), i)
	}
	queries := cfg.Queries
	for t := 0; cfg.Queries == nil && t < cfg.Tenants; t++ {
		queries = append(queries, countSQL(int64(t)))
	}

	for t := int64(0); cfg.Preload > 0 && t < int64(cfg.Tenants); t++ {
		rows := make([]schema.Row, cfg.Preload)
		for i := range rows {
			rows[i] = gens[0].RowForTenant(t)
		}
		if err := tg.AppendContext(context.Background(), rows...); err != nil {
			return rep, fmt.Errorf("chaos: preload tenant %d: %w", t, err)
		}
		d.ack(rows, false)
	}
	if cfg.Settle != nil {
		if err := cfg.Settle(); err != nil {
			return rep, fmt.Errorf("chaos: settle: %w", err)
		}
	}

	d.goLoop(d.sample)
	for _, g := range gens {
		d.goLoop(func() { d.write(g) })
	}
	for i := 0; i < cfg.Readers; i++ {
		d.goLoop(func() { d.read(queries, i*37) })
	}
	if cfg.Audit > 0 {
		d.goLoop(d.audit)
	}

	start := time.Now()
	var heals []func() error
	var faultErr error
	for i, st := range cfg.Schedule {
		d.phase.Store(int32(i))
		var open []func() error // open[j] heals st.Faults[j]
		for _, f := range st.Faults {
			d.logf("chaos: %v", f)
			heal, err := d.open(f)
			open = append(open, heal)
			if err != nil {
				faultErr = fmt.Errorf("chaos: %v: %w", f, err)
				break
			}
		}
		if faultErr == nil {
			time.Sleep(st.Hold)
		}
		for j := len(open) - 1; j >= 0; j-- {
			err := open[j]()
			if err == nil {
				rep.Injected[st.Faults[j].Kind]++
			} else if faultErr == nil {
				faultErr = fmt.Errorf("chaos: heal %v: %w", st.Faults[j], err)
			}
		}
		heals = append(heals, open...)
		if faultErr != nil {
			break
		}
	}
	// Final sweep: heal everything the schedule touched once more, so a
	// fault left open by a failed hook cannot keep in-flight retries
	// spinning out their windows. Every heal is idempotent.
	for _, heal := range heals {
		_ = heal()
	}
	d.stop.Store(true)
	d.wg.Wait() // the traffic is over: rep and d.err are this goroutine's
	rep.Elapsed = time.Since(start)

	if faultErr != nil {
		return rep, faultErr
	}
	if d.err != nil {
		return rep, d.err
	}
	d.logf("chaos: %d batches acked (%d rows), %d queries answered, %d append retries, %d audits",
		rep.Batches, rep.AckedTotal, rep.Queries(), rep.AppendRetries, rep.Audits)
	return rep, nil
}

// generator is writer i's row source (the flood is writer Writers).
func generator(tenants int, theta float64, seed int64, i int) *workload.Generator {
	return workload.NewGenerator(workload.GeneratorConfig{
		Tenants: tenants, Theta: theta, Seed: seed, StartMS: 1_000 + int64(i)*1_000_000_000,
	})
}

var tenantIdx = schema.RequestLogSchema().TenantIdx()

func countSQL(tenant int64) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM request_log WHERE tenant_id = %d AND ts >= 0", tenant)
}

// open injects f and returns its heal, also when the injection failed
// part-way.
func (d *driver) open(f Fault) (func() error, error) {
	tg := d.tg
	switch f.Kind {
	case Crash:
		return func() error { return tg.RecoverWorker(f.Worker) }, tg.CrashWorker(f.Worker)
	case Wipe:
		return func() error { return tg.RecoverWorker(f.Worker) }, tg.CrashWorkerWipeDisk(f.Worker)
	case SlowApply:
		return func() error { return tg.SlowShardApply(f.Shard, 0) }, tg.SlowShardApply(f.Shard, f.Delay)
	case Hook:
		f.Inject()
		return func() error { f.Heal(); return nil }, nil
	case Flood:
		stop := make(chan struct{})
		done := make(chan struct{})
		go d.flood(f, stop, done)
		var once sync.Once
		return func() error { once.Do(func() { close(stop); <-done }); return nil }, nil
	}
	return func() error { return nil }, fmt.Errorf("unknown fault kind %d", f.Kind)
}

// goLoop runs fn on a tracked goroutine.
func (d *driver) goLoop(fn func()) {
	d.wg.Add(1)
	go func() { defer d.wg.Done(); fn() }()
}

// fail records err: the first one is the run's error. Every error,
// fatal or retried, is logged up to ten per run.
func (d *driver) fail(err error, fatal bool) {
	d.mu.Lock()
	d.errs++
	logged := d.errs <= 10
	if fatal && d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
	if logged {
		d.logf("chaos: %v", err)
	}
}

// ack enters an acknowledged batch into the ledger; flood counts it as
// the flood's too.
func (d *driver) ack(rows []schema.Row, flood bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range rows {
		d.rep.Acked[r[tenantIdx].I]++
	}
	d.rep.AckedTotal += int64(len(rows))
	d.rep.Batches++
	if flood {
		d.rep.FloodAcked += int64(len(rows))
	}
}

// write is one writer: a batch is retried with the same rows until
// acked (the cluster's content-addressed dedup must make that safe),
// and enters the ledger only then.
func (d *driver) write(gen *workload.Generator) {
	for !d.stop.Load() {
		batch := gen.Batch(d.cfg.BatchRows)
		d.mu.Lock()
		for _, r := range batch {
			if t := r[tenantIdx].I; t < int64(d.cfg.Audit) {
				d.sent[t]++
			}
		}
		d.mu.Unlock()
		deadline := time.Now().Add(appendWindow)
		for {
			t0 := time.Now()
			err := d.tg.AppendContext(context.Background(), batch...)
			if err == nil {
				d.rep.AppendLatency.Observe(float64(time.Since(t0).Microseconds()) / 1e3)
				break
			}
			d.mu.Lock()
			d.rep.AppendRetries++
			d.mu.Unlock()
			if time.Now().After(deadline) {
				d.fail(fmt.Errorf("batch never acked: %w", err), true)
				return
			}
			d.fail(fmt.Errorf("append (retried): %w", err), false)
			time.Sleep(2 * time.Millisecond)
		}
		d.ack(batch, false)
		time.Sleep(d.cfg.WritePace)
	}
}

// flood is a Flood fault's writer. A batch still unacked when the fault
// heals is dropped, and so is not in the ledger.
func (d *driver) flood(f Fault, stop, done chan struct{}) {
	defer close(done)
	gen := generator(1, 0, d.cfg.Seed+int64(d.cfg.Writers), d.cfg.Writers)
	for {
		batch := make([]schema.Row, f.Rows)
		for i := range batch {
			batch[i] = gen.RowForTenant(f.Tenant)
		}
		for {
			err := d.tg.AppendContext(context.Background(), batch...)
			if err == nil {
				break
			}
			wait := 5 * time.Millisecond
			var over *backpressure.ErrOverloaded
			if errors.As(err, &over) {
				d.mu.Lock()
				d.rep.Shed++
				d.mu.Unlock()
				if wait = over.RetryAfter; wait <= 0 || wait > 50*time.Millisecond {
					wait = 50 * time.Millisecond
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		d.ack(batch, true)
		select {
		case <-stop:
			return
		default:
		}
	}
}

// read is one reader: each query is retried until answered, and the
// step it started in records its latency and failed attempts.
func (d *driver) read(queries []string, offset int) {
	for n := offset; !d.stop.Load(); n++ {
		sql := queries[n%len(queries)]
		deadline := time.Now().Add(queryWindow)
		for {
			ph := d.rep.Phases[d.phase.Load()]
			t0 := time.Now()
			_, err := d.query(sql)
			if err == nil {
				ph.Latency.Observe(float64(time.Since(t0).Microseconds()) / 1e3)
				ph.Queries.Add(1)
				break
			}
			ph.Failures.Add(1)
			if time.Now().After(deadline) {
				d.fail(fmt.Errorf("query %q never answered: %w", sql, err), true)
				return
			}
			d.fail(fmt.Errorf("query %q (retried): %w", sql, err), false)
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(d.cfg.QueryPace)
	}
}

func (d *driver) query(sql string) (*query.Result, error) {
	if d.cfg.QueryDeadline <= 0 {
		return d.tg.QueryContext(context.Background(), sql)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.QueryDeadline)
	defer cancel()
	return d.tg.QueryContext(ctx, sql)
}

// audit holds each audited tenant's count between the previous count
// it saw and the rows sent by the query's end, whatever the archive
// loop is doing to the tenant's rows meanwhile. (The floor is the
// previous count and not the rows acked before the query: an ack waits
// at most 5 s for the shard to apply the entry, so under a slow apply a
// row acked a moment ago may not be visible yet. Once visible it must
// stay visible; the exact comparison with the ledger is VerifyCounts'
// after the traffic stops.) Its queries are in no phase.
func (d *driver) audit() {
	floor := make([]int64, d.cfg.Audit)
	for n := 0; !d.stop.Load(); n++ {
		t := n % d.cfg.Audit
		res, err := d.tg.QueryContext(context.Background(), countSQL(int64(t)))
		if err != nil {
			d.fail(fmt.Errorf("audit query: %w", err), true)
			return
		}
		d.mu.Lock()
		hi := d.sent[int64(t)]
		d.rep.Audits++
		d.mu.Unlock()
		if res.Count < floor[t] || res.Count > hi {
			d.fail(fmt.Errorf("audit: tenant %d counts %d rows, outside [%d counted before, %d sent by the query's end]",
				t, res.Count, floor[t], hi), true)
			continue // a wrong count is no floor for the next
		}
		floor[t] = res.Count
	}
}

// sample tracks the peak memory proxy: the fault windows are exactly
// when queues want to grow.
func (d *driver) sample() {
	for !d.stop.Load() {
		m := d.tg.MemoryProxy()
		d.mu.Lock()
		d.rep.MaxMemory = max(d.rep.MaxMemory, m)
		d.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
}

// QueryTarget is the read surface VerifyCounts needs.
type QueryTarget interface {
	QueryContext(ctx context.Context, sql string) (*query.Result, error)
}

// VerifyCounts polls per-tenant COUNT queries until every tenant
// reports exactly its acked row count — the exactly-once check. Less
// means acked rows were lost; more means a retried batch was applied
// twice. The poll tolerates archive/apply lag up to timeout; a zero
// timeout checks once.
func VerifyCounts(tg QueryTarget, acked map[int64]int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		mismatch := ""
		for tenant, want := range acked {
			res, err := tg.QueryContext(context.Background(), countSQL(tenant))
			switch {
			case err != nil:
				mismatch = fmt.Sprintf("tenant %d: %v", tenant, err)
			case res.Count != want:
				mismatch = fmt.Sprintf("tenant %d: count=%d acked=%d", tenant, res.Count, want)
			}
			if mismatch != "" {
				break
			}
		}
		if mismatch == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: exactly-once violated: %s", mismatch)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
