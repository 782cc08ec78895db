// Package chaos drives seeded fault-injection runs against a live
// cluster: worker crashes and recoveries, raft leader kills, and
// replica network partitions are interleaved with continuous ingest and
// query traffic. The driver's contract is the node-failure safety
// envelope — every acked row survives and is counted exactly once, no
// duplicates appear even when batches are retried across faults, and
// every query is eventually answered.
//
// The package talks to the cluster through the structural Target
// interface so it can run against the top-level logstore.Cluster (which
// satisfies it directly) without an import cycle from the root
// package's own tests.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"logstore/internal/flow"
	"logstore/internal/query"
	"logstore/internal/raft"
	"logstore/internal/schema"
	"logstore/internal/workload"
)

// Target is the fault-injection surface the driver needs from a
// cluster. *logstore.Cluster satisfies it.
type Target interface {
	Append(rows ...schema.Row) error
	Query(sql string) (*query.Result, error)
	ShardIDs() []flow.ShardID
	WorkerIDs() []flow.WorkerID
	CrashWorker(id flow.WorkerID) error
	CrashWorkerWipeDisk(id flow.WorkerID) error
	RecoverWorker(id flow.WorkerID) error
	KillShardLeader(s flow.ShardID) (raft.NodeID, error)
	RestartShardReplica(s flow.ShardID, r raft.NodeID) error
	PartitionShardReplica(s flow.ShardID, r raft.NodeID) error
	HealShard(s flow.ShardID) error
}

// Config parameterizes one chaos run.
type Config struct {
	// Seed fixes the fault schedule and traffic shape; the same seed
	// against the same cluster configuration replays the same run.
	Seed int64
	// Tenants is the traffic fan-out (0 = 4).
	Tenants int
	// BatchRows sizes each ingest batch (0 = 40).
	BatchRows int
	// CrashCycles is how many worker crash→recover cycles to inject.
	CrashCycles int
	// WipeCycles is how many crash→wipe-disk→recover cycles to inject:
	// the worker's raft WALs and SSD cache are destroyed before the
	// rebuild, so recovery must hydrate every hosted shard from the
	// shipped WAL on object storage. Requires the target cluster to run
	// with DataDir and WAL shipping enabled.
	WipeCycles int
	// LeaderKills is how many shard raft leaders to kill (the replica
	// is restarted in place afterwards).
	LeaderKills int
	// Partitions is how many replica network partitions to inject
	// (healed afterwards).
	Partitions int
	// Replicas is the shard replication factor — used to pick which
	// replica to partition (0 = 3).
	Replicas int
	// RecoverAfter is how long each fault is left open before the
	// driver undoes it (0 = 100ms). Must stay under the broker's append
	// retry window or acked writes would start failing permanently.
	RecoverAfter time.Duration
	// Schema describes the log table (nil = RequestLogSchema).
	Schema *schema.Schema
	// StartMS seeds the generator's timestamp column.
	StartMS int64
	// Logf, when set, receives progress lines (testing.T.Logf fits).
	Logf func(format string, args ...any)
}

// Report summarizes a chaos run.
type Report struct {
	// Acked maps tenant → rows acknowledged by Append. These are the
	// rows VerifyCounts holds the cluster to.
	Acked      map[int64]int64
	AckedTotal int64
	// Batches is how many ingest batches were acked.
	Batches int
	// AppendRetries counts Append attempts that failed and were
	// retried with the same rows (the dedup path under test).
	AppendRetries int64
	// Queries is how many concurrent queries were answered mid-chaos.
	Queries int
	// Fault counts actually injected.
	Crashes, LeaderKills, Partitions, Wipes int
}

const (
	crashEvent = iota
	wipeEvent
	leaderKillEvent
	partitionEvent
)

type event struct {
	kind   int
	worker flow.WorkerID
	shard  flow.ShardID
	rep    raft.NodeID
}

// Run executes the seeded fault schedule against tg while ingest and
// query traffic flows, then heals everything and returns the traffic
// ledger. A non-nil error means the safety contract was violated (an
// acked batch was lost to permanent failure, a query never got an
// answer, or a fault hook itself failed).
func Run(tg Target, cfg Config) (*Report, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 4
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 40
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 100 * time.Millisecond
	}
	sch := cfg.Schema
	if sch == nil {
		sch = schema.RequestLogSchema()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	workers := tg.WorkerIDs()
	shards := tg.ShardIDs()
	if len(workers) == 0 || len(shards) == 0 {
		return nil, fmt.Errorf("chaos: target has no workers or shards")
	}

	// Seeded fault schedule: round-robin targets, shuffled order.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var events []event
	for i := 0; i < cfg.CrashCycles; i++ {
		events = append(events, event{kind: crashEvent, worker: workers[i%len(workers)]})
	}
	for i := 0; i < cfg.WipeCycles; i++ {
		// Offset so wipes and plain crashes don't always hit the same
		// worker first.
		events = append(events, event{kind: wipeEvent, worker: workers[(i+1)%len(workers)]})
	}
	for i := 0; i < cfg.LeaderKills; i++ {
		events = append(events, event{kind: leaderKillEvent, shard: shards[i%len(shards)]})
	}
	for i := 0; i < cfg.Partitions; i++ {
		// Partition a follower replica, 1..Replicas-1 in turn, so the
		// serving replica 0 stays reachable and real-time reads keep
		// flowing. A one-node group has no follower: cut off replica 0.
		r := raft.NodeID(0)
		if followers := cfg.Replicas - 1; followers > 0 {
			r = raft.NodeID(1 + i%followers)
		}
		events = append(events, event{kind: partitionEvent, shard: shards[(i*3+1)%len(shards)], rep: r})
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	rep := &Report{Acked: map[int64]int64{}}
	var mu sync.Mutex // guards rep and the error slots below
	var ingestErr, queryErr error

	// Ingest: keep appending until told to stop. A failed Append is
	// retried with the SAME rows — the cluster's content-addressed
	// dedup must make that safe — and a batch only enters the acked
	// ledger once Append returns nil.
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: cfg.Tenants, Theta: 0, Seed: cfg.Seed + 1, StartMS: cfg.StartMS,
	})
	tenantIdx := sch.TenantIdx()
	stopIngest := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopIngest:
				return
			default:
			}
			batch := gen.Batch(cfg.BatchRows)
			deadline := time.Now().Add(60 * time.Second)
			for {
				err := tg.Append(batch...)
				if err == nil {
					break
				}
				mu.Lock()
				rep.AppendRetries++
				mu.Unlock()
				if time.Now().After(deadline) {
					mu.Lock()
					ingestErr = fmt.Errorf("chaos: batch never acked: %w", err)
					mu.Unlock()
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			mu.Lock()
			for _, r := range batch {
				rep.Acked[r[tenantIdx].I]++
			}
			rep.AckedTotal += int64(len(batch))
			rep.Batches++
			mu.Unlock()
		}
	}()

	// Queries: round-robin COUNT per tenant, retried until answered.
	// Transient failures during crash windows are expected; a query
	// that cannot be answered within its deadline is a contract
	// violation.
	stopQuery := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopQuery:
				return
			default:
			}
			tenant := int64(i % cfg.Tenants)
			sql := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %d AND %s >= 0",
				sch.Name, sch.TenantCol, tenant, sch.TimeCol)
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, err := tg.Query(sql); err == nil {
					break
				} else if time.Now().After(deadline) {
					mu.Lock()
					queryErr = fmt.Errorf("chaos: query for tenant %d never answered: %w", tenant, err)
					mu.Unlock()
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			mu.Lock()
			rep.Queries++
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	// Fault schedule: one fault at a time, each undone after
	// RecoverAfter, with a traffic gap before the next.
	var faultErr error
	for _, ev := range events {
		switch ev.kind {
		case crashEvent:
			logf("chaos: crash worker %d", ev.worker)
			if err := tg.CrashWorker(ev.worker); err != nil {
				faultErr = fmt.Errorf("chaos: crash worker %d: %w", ev.worker, err)
				break
			}
			time.Sleep(cfg.RecoverAfter)
			if err := tg.RecoverWorker(ev.worker); err != nil {
				faultErr = fmt.Errorf("chaos: recover worker %d: %w", ev.worker, err)
				break
			}
			rep.Crashes++
		case wipeEvent:
			logf("chaos: crash worker %d and wipe its disk", ev.worker)
			if err := tg.CrashWorkerWipeDisk(ev.worker); err != nil {
				faultErr = fmt.Errorf("chaos: wipe worker %d: %w", ev.worker, err)
				break
			}
			time.Sleep(cfg.RecoverAfter)
			if err := tg.RecoverWorker(ev.worker); err != nil {
				faultErr = fmt.Errorf("chaos: recover wiped worker %d: %w", ev.worker, err)
				break
			}
			rep.Wipes++
		case leaderKillEvent:
			// Retry: the group may be mid-election from a prior fault.
			var killed raft.NodeID
			var err error
			killDeadline := time.Now().Add(5 * time.Second)
			for {
				killed, err = tg.KillShardLeader(ev.shard)
				if err == nil || time.Now().After(killDeadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err != nil {
				faultErr = fmt.Errorf("chaos: kill leader of shard %d: %w", ev.shard, err)
				break
			}
			logf("chaos: killed leader replica %d of shard %d", killed, ev.shard)
			time.Sleep(cfg.RecoverAfter)
			if err := tg.RestartShardReplica(ev.shard, killed); err != nil {
				faultErr = fmt.Errorf("chaos: restart replica %d of shard %d: %w", killed, ev.shard, err)
				break
			}
			rep.LeaderKills++
		case partitionEvent:
			logf("chaos: partition replica %d of shard %d", ev.rep, ev.shard)
			if err := tg.PartitionShardReplica(ev.shard, ev.rep); err != nil {
				faultErr = fmt.Errorf("chaos: partition shard %d: %w", ev.shard, err)
				break
			}
			time.Sleep(cfg.RecoverAfter)
			if err := tg.HealShard(ev.shard); err != nil {
				faultErr = fmt.Errorf("chaos: heal shard %d: %w", ev.shard, err)
				break
			}
			rep.Partitions++
		}
		if faultErr != nil {
			break
		}
		time.Sleep(cfg.RecoverAfter / 2)
	}

	// Final sweep: heal and restart everything so in-flight retries can
	// land, then stop traffic. All hooks are idempotent. A fault-hook
	// failure may have left a worker dead mid-cycle — rebuild them all
	// so traffic drains instead of spinning out its full deadline.
	if faultErr != nil {
		for _, w := range workers {
			_ = tg.RecoverWorker(w)
		}
	}
	for _, s := range shards {
		_ = tg.HealShard(s)
		for r := 0; r < cfg.Replicas; r++ {
			_ = tg.RestartShardReplica(s, raft.NodeID(r))
		}
	}
	close(stopIngest)
	close(stopQuery)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	switch {
	case faultErr != nil:
		return rep, faultErr
	case ingestErr != nil:
		return rep, ingestErr
	case queryErr != nil:
		return rep, queryErr
	}
	logf("chaos: %d batches acked (%d rows), %d queries answered, %d append retries",
		rep.Batches, rep.AckedTotal, rep.Queries, rep.AppendRetries)
	return rep, nil
}

// QueryTarget is the minimal read surface VerifyCounts needs; both
// Target and BrownoutTarget cover it.
type QueryTarget interface {
	Query(sql string) (*query.Result, error)
}

// VerifyCounts polls per-tenant COUNT queries until every tenant
// reports exactly its acked row count — the exactly-once check. Less
// means acked rows were lost; more means a retried batch was applied
// twice. The poll tolerates archive/apply lag up to timeout.
func VerifyCounts(tg QueryTarget, sch *schema.Schema, acked map[int64]int64, timeout time.Duration) error {
	if sch == nil {
		sch = schema.RequestLogSchema()
	}
	deadline := time.Now().Add(timeout)
	for {
		mismatch := ""
		for tenant, want := range acked {
			sql := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %d AND %s >= 0",
				sch.Name, sch.TenantCol, tenant, sch.TimeCol)
			res, err := tg.Query(sql)
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
