package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"logstore/internal/backpressure"
	"logstore/internal/flow"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// BrownoutTarget is the graceful-degradation surface the brownout
// schedule needs: context-bounded client paths, the slow-replica
// injection knob, and the memory proxy. *logstore.Cluster satisfies it.
type BrownoutTarget interface {
	AppendContext(ctx context.Context, rows ...schema.Row) error
	QueryContext(ctx context.Context, sql string) (*query.Result, error)
	Query(sql string) (*query.Result, error)
	ShardIDs() []flow.ShardID
	SlowShardApply(s flow.ShardID, d time.Duration) error
	MemoryProxy() int64
}

// BrownoutConfig parameterizes one brownout run: gray failures — a
// store that is slow, a replica that lags, a tenant that floods — are
// held open while healthy-tenant traffic is measured against its own
// pre-fault baseline.
type BrownoutConfig struct {
	// Seed fixes the traffic shape.
	Seed int64
	// Tenants is the healthy-tenant fan-out (0 = 3); tenant ids are
	// 0..Tenants-1. HotTenant (default Tenants, i.e. one past the
	// healthy range) floods during the brownout phase.
	Tenants   int
	HotTenant int64
	// PreloadRows rows per healthy tenant are appended and (via the
	// Settle hook) archived before the baseline phase, so queries
	// exercise the OSS read path the faults will later degrade
	// (0 = 400).
	PreloadRows int
	// BaselineQueries / BrownoutQueries size the two measurement
	// phases (0 = 60 each).
	BaselineQueries int
	BrownoutQueries int
	// QueryDeadline bounds each measured query (0 = 2s).
	QueryDeadline time.Duration
	// QueryPace spaces the measured queries out (0 = back-to-back).
	// Pacing stretches the measurement phases into a real wall-clock
	// window, so the concurrent flood and ingest loops actually run
	// against the faults instead of racing a sub-second burst.
	QueryPace time.Duration
	// HotBatchRows sizes the hot tenant's flood batches (0 = 200).
	HotBatchRows int
	// HealthyBatchRows / HealthyPace shape the healthy tenants' steady
	// ingest during the brownout (0 = 40 rows every 50ms).
	HealthyBatchRows int
	HealthyPace      time.Duration
	// SlowShard and SlowApplyDelay, when the delay is positive, lag one
	// shard's serving replica for the duration of the fault window.
	SlowShard      flow.ShardID
	SlowApplyDelay time.Duration
	// InjectFaults / HealFaults bracket the fault window — the caller
	// arms its store-level faults here (e.g. oss.FlakyStore stalls on
	// one worker's view of OSS). Either may be nil.
	InjectFaults func()
	HealFaults   func()
	// Settle drains resident rows to object storage after the preload
	// (logstore.Cluster callers: Flush + WaitForArchive). May be nil.
	Settle func() error
	// Schema describes the log table (nil = RequestLogSchema).
	Schema *schema.Schema
	// StartMS seeds the generator's timestamp column.
	StartMS int64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// BrownoutReport is the measured outcome of a brownout run.
type BrownoutReport struct {
	// Acked maps tenant → rows acked (healthy preload + steady ingest
	// + every hot-tenant batch that was eventually admitted). The
	// exactly-once check holds the cluster to this ledger.
	Acked      map[int64]int64
	AckedTotal int64
	// BaselineP99 / BrownoutP99 are the healthy tenants' query p99
	// before and during the fault window.
	BaselineP99 time.Duration
	BrownoutP99 time.Duration
	// QueryFailures counts healthy-tenant queries that missed their
	// deadline during the brownout.
	QueryFailures int
	// HotShed / HotAcked count the flooding tenant's rejected append
	// attempts and eventually-admitted rows.
	HotShed  int64
	HotAcked int64
	// MaxMemory is the peak cluster memory proxy observed during the
	// fault window.
	MaxMemory int64
}

// p99 returns the 99th-percentile of the samples (0 when empty).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)*99/100]
}

// RunBrownout executes the brownout schedule: preload and settle,
// measure a healthy baseline, open the fault window (store stalls via
// the caller's hook, one lagging replica, one flooding tenant) while
// measuring healthy-tenant latency and the memory proxy, then heal.
// The returned report carries the acked ledger for VerifyCounts.
func RunBrownout(tg BrownoutTarget, cfg BrownoutConfig) (*BrownoutReport, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.HotTenant == 0 {
		cfg.HotTenant = int64(cfg.Tenants)
	}
	if cfg.PreloadRows <= 0 {
		cfg.PreloadRows = 400
	}
	if cfg.BaselineQueries <= 0 {
		cfg.BaselineQueries = 60
	}
	if cfg.BrownoutQueries <= 0 {
		cfg.BrownoutQueries = 60
	}
	if cfg.QueryDeadline <= 0 {
		cfg.QueryDeadline = 2 * time.Second
	}
	if cfg.HotBatchRows <= 0 {
		cfg.HotBatchRows = 200
	}
	if cfg.HealthyBatchRows <= 0 {
		cfg.HealthyBatchRows = 40
	}
	if cfg.HealthyPace <= 0 {
		cfg.HealthyPace = 50 * time.Millisecond
	}
	sch := cfg.Schema
	if sch == nil {
		sch = schema.RequestLogSchema()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &BrownoutReport{Acked: map[int64]int64{}}
	var mu sync.Mutex // guards rep during the concurrent fault window

	// The generator covers healthy tenants AND the hot tenant so
	// RowForTenant conforms for both.
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: int(cfg.HotTenant) + 1, Theta: 0, Seed: cfg.Seed, StartMS: cfg.StartMS,
	})
	genMu := sync.Mutex{} // generator is not concurrency-safe
	batchFor := func(tenant int64, n int) []schema.Row {
		genMu.Lock()
		defer genMu.Unlock()
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = gen.RowForTenant(tenant)
		}
		return rows
	}

	// Preload and settle: the baseline must read through the same OSS
	// path the faults will later degrade.
	for t := int64(0); t < int64(cfg.Tenants); t++ {
		if err := tg.AppendContext(context.Background(), batchFor(t, cfg.PreloadRows)...); err != nil {
			return rep, fmt.Errorf("brownout: preload tenant %d: %w", t, err)
		}
		rep.Acked[t] += int64(cfg.PreloadRows)
		rep.AckedTotal += int64(cfg.PreloadRows)
	}
	if cfg.Settle != nil {
		if err := cfg.Settle(); err != nil {
			return rep, fmt.Errorf("brownout: settle preload: %w", err)
		}
	}

	countQuery := func(tenant int64) string {
		return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %d AND %s >= 0",
			sch.Name, sch.TenantCol, tenant, sch.TimeCol)
	}
	// measure runs n healthy-tenant queries under the deadline and
	// returns the successful latencies and the failure count.
	measure := func(n int) ([]time.Duration, int) {
		var lat []time.Duration
		fails := 0
		for i := 0; i < n; i++ {
			tenant := int64(i % cfg.Tenants)
			ctx, cancel := context.WithTimeout(context.Background(), cfg.QueryDeadline)
			start := time.Now()
			_, err := tg.QueryContext(ctx, countQuery(tenant))
			cancel()
			if err != nil {
				fails++
			} else {
				lat = append(lat, time.Since(start))
			}
			if cfg.QueryPace > 0 {
				time.Sleep(cfg.QueryPace)
			}
		}
		return lat, fails
	}

	baseLat, baseFails := measure(cfg.BaselineQueries)
	if baseFails > 0 {
		return rep, fmt.Errorf("brownout: %d baseline queries failed before any fault", baseFails)
	}
	rep.BaselineP99 = p99(baseLat)
	logf("brownout: baseline p99 %v over %d queries", rep.BaselineP99, len(baseLat))

	// ---- fault window ----
	if cfg.InjectFaults != nil {
		cfg.InjectFaults()
	}
	if cfg.SlowApplyDelay > 0 {
		if err := tg.SlowShardApply(cfg.SlowShard, cfg.SlowApplyDelay); err != nil {
			return rep, fmt.Errorf("brownout: slow shard %d: %w", cfg.SlowShard, err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Hot tenant: flood far past its admission budget. Every batch is
	// retried until admitted — a shed is a delay, never a loss — so the
	// acked ledger stays exact while the shed counter measures how hard
	// admission pushed back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			batch := batchFor(cfg.HotTenant, cfg.HotBatchRows)
			for {
				err := tg.AppendContext(context.Background(), batch...)
				if err == nil {
					mu.Lock()
					rep.Acked[cfg.HotTenant] += int64(len(batch))
					rep.AckedTotal += int64(len(batch))
					rep.HotAcked += int64(len(batch))
					mu.Unlock()
					break
				}
				var over *backpressure.ErrOverloaded
				if errors.As(err, &over) {
					mu.Lock()
					rep.HotShed++
					mu.Unlock()
					wait := over.RetryAfter
					if wait <= 0 || wait > 50*time.Millisecond {
						wait = 50 * time.Millisecond
					}
					time.Sleep(wait)
				} else {
					time.Sleep(5 * time.Millisecond)
				}
				select {
				case <-done:
					return // unacked batch: not in the ledger
				default:
				}
			}
		}
	}()

	// Healthy tenants: steady paced ingest, same retry-until-acked
	// ledger discipline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			tenant := int64(i % cfg.Tenants)
			batch := batchFor(tenant, cfg.HealthyBatchRows)
			acked := false
			for !acked {
				if err := tg.AppendContext(context.Background(), batch...); err == nil {
					acked = true
				} else {
					time.Sleep(5 * time.Millisecond)
					select {
					case <-done:
						return
					default:
					}
				}
			}
			mu.Lock()
			rep.Acked[tenant] += int64(len(batch))
			rep.AckedTotal += int64(len(batch))
			mu.Unlock()
			time.Sleep(cfg.HealthyPace)
		}
	}()

	// Memory sampler: the fault window is exactly when queues want to
	// grow; the gate asserts the peak stays bounded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if m := tg.MemoryProxy(); m > rep.MaxMemory {
				mu.Lock()
				if m > rep.MaxMemory {
					rep.MaxMemory = m
				}
				mu.Unlock()
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	brownLat, brownFails := measure(cfg.BrownoutQueries)
	close(done)
	wg.Wait()

	// ---- heal ----
	if cfg.SlowApplyDelay > 0 {
		if err := tg.SlowShardApply(cfg.SlowShard, 0); err != nil {
			return rep, fmt.Errorf("brownout: heal shard %d: %w", cfg.SlowShard, err)
		}
	}
	if cfg.HealFaults != nil {
		cfg.HealFaults()
	}

	rep.BrownoutP99 = p99(brownLat)
	rep.QueryFailures = brownFails
	logf("brownout: p99 %v (baseline %v), %d/%d queries failed, hot shed=%d acked=%d, peak memory proxy %d bytes",
		rep.BrownoutP99, rep.BaselineP99, brownFails, cfg.BrownoutQueries,
		rep.HotShed, rep.HotAcked, rep.MaxMemory)
	if len(brownLat) == 0 {
		return rep, fmt.Errorf("brownout: no healthy-tenant query succeeded during the fault window")
	}
	return rep, nil
}
