package main

import (
	"sort"

	"logstore/internal/schema"
	"logstore/internal/workload"
)

// The paper's workload shape (§6.1): 1000 tenants drawn zipfian with
// θ = 0.99, written in 200-row multi-tenant batches.
const (
	tenants   = 1000
	theta     = 0.99
	batchRows = 200
	// historyMS is the span a preloaded history covers (the paper
	// queries a 48-hour history with one-hour and six-hour windows).
	historyMS = 48 * 3600 * 1000
)

// request_log column ordinals.
const (
	colTenant = iota
	colTS
	colIP
	colAPI
	colLatency
	colFail
	colLog
)

// fact is what the oracle keeps of one generated row: the columns the
// paper's query template can filter on.
type fact struct {
	ts      int64
	latency int64
	ip      string
	fail    string
}

// dataset is a generated row history plus the scalar oracle over it.
type dataset struct {
	batches   [][]schema.Row
	rows      int64
	userBytes int64
	startMS   int64
	endMS     int64 // timestamp of the last row
	// byTenant lists each tenant's rows in timestamp order (generation
	// order: one stream, strictly increasing timestamps).
	byTenant map[int64][]fact
}

// generate draws n rows over the nTenants hottest tenants, in 200-row
// batches from one generator stream. stepMS spaces the timestamps; one
// stream keeps them unique, which the ingest path's content-hash dedup
// relies on.
func generate(seed int64, nTenants, n int, startMS, stepMS int64) *dataset {
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: nTenants, Theta: theta, Seed: seed, StartMS: startMS, StepMS: stepMS,
	})
	d := &dataset{startMS: startMS, byTenant: make(map[int64][]fact)}
	for d.rows < int64(n) {
		d.add(gen.Batch(batchRows))
	}
	return d
}

// add appends one batch to the history and the oracle.
func (d *dataset) add(b []schema.Row) {
	d.batches = append(d.batches, b)
	for _, r := range b {
		d.rows++
		d.userBytes += int64(r.Size())
		t := r[colTenant].I
		d.byTenant[t] = append(d.byTenant[t], fact{
			ts: r[colTS].I, latency: r[colLatency].I, ip: r[colIP].S, fail: r[colFail].S,
		})
		if ts := r[colTS].I; ts > d.endMS {
			d.endMS = ts
		}
	}
}

// window returns the tenant's rows with startMS <= ts <= endMS.
func (d *dataset) window(tenant, startMS, endMS int64) []fact {
	rows := d.byTenant[tenant]
	lo := sort.Search(len(rows), func(i int) bool { return rows[i].ts >= startMS })
	hi := sort.Search(len(rows), func(i int) bool { return rows[i].ts > endMS })
	if hi < lo {
		return nil
	}
	return rows[lo:hi]
}

// expect is the oracle: how many rows the query must return, by a
// plain scalar filter over the generated rows.
func (d *dataset) expect(q workload.QuerySpec) int {
	n := 0
	for _, f := range d.window(q.Tenant, q.StartMS, q.EndMS) {
		if q.IP != "" && f.ip != q.IP {
			continue
		}
		if q.MinLat >= 0 && f.latency < q.MinLat {
			continue
		}
		if q.Fail != "" && f.fail != q.Fail {
			continue
		}
		n++
	}
	return n
}

// checkedQuery is one query with its oracle answer.
type checkedQuery struct {
	workload.QuerySpec
	want int
}

const shapes = 6 // workload.GenerateQueries cycles six query shapes per tenant

// queryGrid builds the paper's query set over the history — six shapes
// per tenant — keeping only queries whose tenant and time window hold
// data, each with its oracle answer. grid[t] lists tenant t's queries
// by shape; a nil entry was dropped.
func (d *dataset) queryGrid(seed int64) [][]*checkedQuery {
	specs := workload.GenerateQueries(workload.QuerySetConfig{
		Tenants: tenants, PerTenant: shapes,
		HistoryStartMS: d.startMS, HistoryEndMS: d.endMS, Seed: seed,
	})
	grid := make([][]*checkedQuery, tenants)
	for t := range grid {
		grid[t] = make([]*checkedQuery, shapes)
		for s := 0; s < shapes; s++ {
			q := specs[t*shapes+s]
			if len(d.window(q.Tenant, q.StartMS, q.EndMS)) == 0 {
				continue
			}
			grid[t][s] = &checkedQuery{QuerySpec: q, want: d.expect(q)}
		}
	}
	return grid
}

// laps orders the grid for the cold workload: each lap visits every
// tenant once, rotating the shape with the tenant so a lap mixes all
// six shapes, and six laps cover the whole grid. Within a lap no two
// queries share a tenant, hence no two share a LogBlock.
func laps(grid [][]*checkedQuery) [][]*checkedQuery {
	out := make([][]*checkedQuery, shapes)
	for k := range out {
		for t := range grid {
			if q := grid[t][(t+k)%shapes]; q != nil {
				out[k] = append(out[k], q)
			}
		}
	}
	return out
}
