GO ?= go
FUZZTIME ?= 10s
CHAOS_SEED ?= 2026

.PHONY: check fmt vet build test race fuzz chaos chaos-short bench bench-all bench-e2e bench-e2e-compare benchdiff soak soak-short soak-baseline clean

## check: the tier-1 gate — formatting, vet, build (which also holds
## the invariants the types carry: OSS access through
## oss.RetryingStore), race-enabled tests, a short fuzz pass over every
## untrusted decode surface, one short chaos run (node failures, disk
## wipe, brownout), and a short sustained-load soak with exactly-once
## accounting. EXPERIMENTS.md "Which gates catch what" has each leg's
## wall time and the seeded mutations it catches.
check: fmt vet build race fuzz chaos-short soak-short

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: run every fuzz target for FUZZTIME each, starting from the
## checked-in seed corpora (regenerate those with `go run ./cmd/fuzzseed`).
## Go allows one -fuzz target per invocation, hence the list.
## (FuzzForEachSub, FuzzShipDecode and the two HTTP body targets cap
## minimization: the default 60s per interesting input stalls both fuzz
## workers for longer than FUZZTIME.)
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLZRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -run '^$$' -fuzz '^FuzzSMADecode$$' -fuzztime $(FUZZTIME) ./internal/index/sma/
	$(GO) test -run '^$$' -fuzz '^FuzzBKDOpen$$' -fuzztime $(FUZZTIME) ./internal/index/bkd/
	$(GO) test -run '^$$' -fuzz '^FuzzInvertedOpen$$' -fuzztime $(FUZZTIME) ./internal/index/inverted/
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzerEquivalence$$' -fuzztime $(FUZZTIME) ./internal/index/inverted/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenReader$$' -fuzztime $(FUZZTIME) ./internal/logblock/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlockData$$' -fuzztime $(FUZZTIME) ./internal/logblock/
	$(GO) test -run '^$$' -fuzz '^FuzzForEachSub$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/worker/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendBatch$$' -fuzztime $(FUZZTIME) ./internal/rowstore/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzShipDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/ship/
	$(GO) test -run '^$$' -fuzz '^FuzzCatalogUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/meta/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime $(FUZZTIME) ./internal/raft/
	$(GO) test -run '^$$' -fuzz '^FuzzWALStorageReplay$$' -fuzztime $(FUZZTIME) ./internal/raft/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendBody$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/httpapi/
	$(GO) test -run '^$$' -fuzz '^FuzzQueryBody$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/httpapi/

## chaos: the chaos gates at full size, with per-run recovery stats in
## the -v output. Each gate is a schedule played by the one load-and-fault
## driver, chaos.Run; the fault schedule is fixed by CHAOS_SEED (override
## to explore other interleavings).
##  - node failures, and the cluster end to end over a faulty OSS
##    (TestChaosNodeFailures, TestChaosClusterEndToEnd);
##  - disk loss: workers crash with their raft WALs and caches destroyed
##    under live traffic, and recovery must hydrate the lost shards from
##    the shipped WAL on OSS (TestChaosDiskWipe, TestDiskLossHydration);
##  - gray failure: nothing crashes, but one worker's OSS reads stall,
##    one replica lags its applies, and one tenant floods at ~10x its
##    admission budget; healthy tenants' query p99 must stay within 3x
##    baseline, the memory proxy bounded and the flood shed with
##    Retry-After (TestChaosBrownout, TestQueryExpiredDeadlineSkipsOSS,
##    TestCanceledQueriesReleaseCapacity).
## Every run keeps exactly-once accounting intact.
chaos:
	LOGSTORE_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -v \
		-run 'TestChaosNodeFailures|TestChaosClusterEndToEnd|TestChaosDiskWipe|TestDiskLossHydration|TestChaosBrownout|TestQueryExpiredDeadlineSkipsOSS|TestCanceledQueriesReleaseCapacity' \
		-timeout 900s .

## chaos-short: the reduced node-failure, disk-wipe and brownout
## schedules of chaos.Run folded into `make check`, in one race test
## binary.
chaos-short:
	LOGSTORE_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -short \
		-run 'TestChaos(NodeFailures|DiskWipe|Brownout)$$' -timeout 360s .

## bench: the micro-benchmarks tracked across perf PRs; writes
## BENCH_scan.json (query path, with Parse, the BKD index's Open and
## Range, and a warm query's fixed cost through the cluster) and
## BENCH_ingest.json (write path: the append benchmarks plus the
## archive rung, BuildPack, DrainStore, a flush against the simulated
## store at commit windows 1 and 16, and the apply path's DedupSet) with
## ns/op, B/op, allocs/op and custom metrics (packedB/userB, ns/row)
## per bench. Commit the refreshed JSON when a perf PR intentionally
## moves the numbers — benchdiff gates against it.
bench:
	$(GO) test -bench 'BenchmarkScan|BenchmarkMaterialize|BenchmarkMaterializeWarm|BenchmarkCountStar|BenchmarkMatchTimeSlice|BenchmarkMatchFullHistory|BenchmarkParse$$' \
		-benchmem -run '^$$' ./internal/query/ > /tmp/bench_scan.txt
	$(GO) test -bench 'BenchmarkOpen$$|BenchmarkRange$$' -benchmem -run '^$$' ./internal/index/bkd/ >> /tmp/bench_scan.txt
	$(GO) test -bench 'BenchmarkWarmQuery$$' -benchmem -run '^$$' . >> /tmp/bench_scan.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_scan.txt > BENCH_scan.json
	$(GO) test -bench 'BenchmarkIngestThroughput$$|BenchmarkIngestThroughputReplicated$$|BenchmarkEncodeBatch$$|BenchmarkAppendGroupCommit$$' \
		-benchmem -benchtime 2s -run '^$$' . > /tmp/bench_ingest.txt
	$(GO) test -bench 'BenchmarkBuildPack$$|BenchmarkDrainStore$$|BenchmarkFlushSim$$|BenchmarkDedupSet$$' \
		-benchmem -run '^$$' ./internal/logblock/ ./internal/builder/ ./internal/worker/ >> /tmp/bench_ingest.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_ingest.txt > BENCH_ingest.json

## benchdiff: re-measure the tracked benchmarks and fail on a >25%
## ns/op or allocs/op regression against the committed baselines, or
## on packedB/userB (LogBlock bytes per user byte) growing by >1%,
## then re-run the full soak and gate BENCH_soak.json throughput,
## and bound the WAL-shipping overhead against a durable baseline.
benchdiff: benchdiff-micro benchdiff-soak benchdiff-ship benchdiff-admission

.PHONY: benchdiff-micro benchdiff-soak benchdiff-ship benchdiff-admission
benchdiff-micro:
	$(GO) test -bench 'BenchmarkScan|BenchmarkMaterialize|BenchmarkMaterializeWarm|BenchmarkCountStar|BenchmarkMatchTimeSlice|BenchmarkMatchFullHistory|BenchmarkParse$$' \
		-benchmem -run '^$$' ./internal/query/ > /tmp/benchdiff_scan.txt
	$(GO) test -bench 'BenchmarkOpen$$|BenchmarkRange$$' -benchmem -run '^$$' ./internal/index/bkd/ >> /tmp/benchdiff_scan.txt
	$(GO) test -bench 'BenchmarkWarmQuery$$' -benchmem -run '^$$' . >> /tmp/benchdiff_scan.txt
	$(GO) run ./cmd/benchjson < /tmp/benchdiff_scan.txt > /tmp/benchdiff_scan.json
	$(GO) run ./cmd/benchdiff -base BENCH_scan.json -new /tmp/benchdiff_scan.json
	$(GO) test -bench 'BenchmarkIngestThroughput$$|BenchmarkIngestThroughputReplicated$$|BenchmarkEncodeBatch$$|BenchmarkAppendGroupCommit$$' \
		-benchmem -benchtime 2s -run '^$$' . > /tmp/benchdiff_ingest.txt
	$(GO) test -bench 'BenchmarkBuildPack$$|BenchmarkDrainStore$$|BenchmarkFlushSim$$|BenchmarkDedupSet$$' \
		-benchmem -run '^$$' ./internal/logblock/ ./internal/builder/ ./internal/worker/ >> /tmp/benchdiff_ingest.txt
	$(GO) run ./cmd/benchjson < /tmp/benchdiff_ingest.txt > /tmp/benchdiff_ingest.json
	$(GO) run ./cmd/benchdiff -base BENCH_ingest.json -new /tmp/benchdiff_ingest.json

benchdiff-soak:
	$(GO) run ./cmd/logstore-soak -tenants 2000 -duration 20s \
		-writers 8 -readers 2 -out /tmp/benchdiff_soak.json
	$(GO) run ./cmd/benchdiff -mode soak -max-regress 40 \
		-base BENCH_soak.json -new /tmp/benchdiff_soak.json

## benchdiff-ship: shipping-overhead gate. Two identically shaped soaks
## on durable raft WALs — one plain, one with async WAL shipping — must
## land within 50% of each other. The disk-WAL fsync cost dominates
## both runs equally, so what this bounds is the marginal cost of the
## ship hook, the chunk encoding, and the OSS uploads.
benchdiff-ship:
	$(GO) run ./cmd/logstore-soak -tenants 200 -duration 2s \
		-writers 4 -readers 1 -durable -out /tmp/bench_soak_durable.json
	$(GO) run ./cmd/logstore-soak -tenants 200 -duration 2s \
		-writers 4 -readers 1 -ship -out /tmp/bench_soak_ship.json
	$(GO) run ./cmd/benchdiff -mode soak -max-regress 50 \
		-base /tmp/bench_soak_durable.json -new /tmp/bench_soak_ship.json

## benchdiff-admission: admission-overhead gate. The ingest throughput
## benchmark runs back to back — plain, then with admission control
## enabled at budgets far above the offered load — and the admitted
## min-of-5 must land within 3% ns/op of the plain min-of-5: per-tenant
## token buckets may cost bookkeeping, never throughput. (Min-of-N on
## both sides squeezes scheduler noise out of a gate this tight.) The
## admitted run is also held to the committed BENCH_ingest.json
## baseline at the standard micro tolerance.
benchdiff-admission:
	$(GO) test -bench 'BenchmarkIngestThroughput$$' -count 5 \
		-benchmem -benchtime 1s -run '^$$' . > /tmp/bench_admit_off.txt
	$(GO) run ./cmd/benchjson -best < /tmp/bench_admit_off.txt > /tmp/bench_admit_off.json
	LOGSTORE_BENCH_ADMIT=1 $(GO) test -bench 'BenchmarkIngestThroughput$$' -count 5 \
		-benchmem -benchtime 1s -run '^$$' . > /tmp/bench_admit_on.txt
	$(GO) run ./cmd/benchjson -best < /tmp/bench_admit_on.txt > /tmp/bench_admit_on.json
	$(GO) run ./cmd/benchdiff -max-regress 3 \
		-base /tmp/bench_admit_off.json -new /tmp/bench_admit_on.json
	$(GO) run ./cmd/benchdiff -base BENCH_ingest.json -new /tmp/bench_admit_on.json

## bench-all: every benchmark in the tree, one iteration (smoke).
bench-all:
	$(GO) test -bench=. -benchtime=1x ./...

## bench-e2e: the repository's benchmark (BENCHMARK.json, benchmark/README.md)
## — every workload ten times on consecutive seeds; median, quartiles
## and spread per end-to-end metric go to OUT. For a parent/change table
## run it on each commit, alternating if the box is shared, then
## bench-e2e-compare.
OUT ?= benchmark/out/e2e.json
bench-e2e:
	mkdir -p $(dir $(OUT))
	bash benchmark/run.sh -repeat 10 -out $(OUT)

## bench-e2e-compare: `make bench-e2e-compare A=parent.json B=change.json`
## prints, per workload and metric, both medians, how much worse B is,
## the bound, and within bound / worse / unresolved.
bench-e2e-compare:
	bash benchmark/run.sh -compare $(A) $(B)

## soak: the sustained-load gate — chaos.Run with one fault-free step:
## thousands of zipfian tenants, concurrent writers, readers and a read
## audit against a replicated cluster, with exactly-once accounting
## verified at the end; writes BENCH_soak.json (commit it alongside perf
## PRs).
soak:
	$(GO) run ./cmd/logstore-soak -tenants 2000 -duration 20s \
		-writers 8 -readers 2 -out BENCH_soak.json

## soak-short: the reduced soak (the same one-step chaos.Run) folded
## into `make check`, gated against the committed short baseline so
## throughput regressions fail the tier-1 gate. The 50% tolerance absorbs 2s-run noise; real
## regressions (a proposal per tenant again, serialized appends) cut
## throughput by integer factors, not halves.
soak-short:
	$(GO) run ./cmd/logstore-soak -tenants 200 -duration 2s \
		-writers 4 -readers 1 -out /tmp/bench_soak_short.json
	$(GO) run ./cmd/benchdiff -mode soak -max-regress 50 \
		-base BENCH_soak_short.json -new /tmp/bench_soak_short.json

## soak-baseline: deliberately refresh the committed short-soak
## baseline (commit the result alongside intentional perf changes).
soak-baseline:
	$(GO) run ./cmd/logstore-soak -tenants 200 -duration 2s \
		-writers 4 -readers 1 -out BENCH_soak_short.json

clean:
	$(GO) clean ./...
	rm -rf .bench_build benchmark/out
