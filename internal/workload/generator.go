package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"logstore/internal/schema"
)

// Generator produces request_log rows for a multi-tenant workload whose
// tenant draw is Zipfian(θ), matching the paper's YCSB setup: 1000
// tenants, weight of tenant k proportional to (1/k)^θ.
type Generator struct {
	Schema  *schema.Schema
	zipf    *Zipfian
	rng     *rand.Rand
	now     int64 // ms timestamp for the next row
	stepMS  int64
	apis    []string
	ips     []string
	msgPool []string
}

// GeneratorConfig configures a workload generator.
type GeneratorConfig struct {
	Tenants int     // number of tenants (paper: 1000)
	Theta   float64 // Zipf skew (paper: 0.99 ≈ production)
	Seed    int64
	StartMS int64 // timestamp of the first row (ms)
	StepMS  int64 // timestamp increment per row; <=0 means 1ms
}

// NewGenerator returns a generator for the paper's request_log table.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	if cfg.StepMS <= 0 {
		cfg.StepMS = 1
	}
	if cfg.StartMS == 0 {
		cfg.StartMS = time.Date(2020, 11, 11, 0, 0, 0, 0, time.UTC).UnixMilli()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{
		Schema: schema.RequestLogSchema(),
		zipf:   NewZipfian(cfg.Tenants, cfg.Theta, cfg.Seed+1),
		rng:    rng,
		now:    cfg.StartMS,
		stepMS: cfg.StepMS,
	}
	g.apis = []string{
		"/api/v1/query", "/api/v1/insert", "/api/v1/scan",
		"/api/v2/login", "/api/v2/logout", "/api/v2/profile",
		"/admin/metrics", "/admin/config", "/healthz", "/api/v1/export",
	}
	g.ips = make([]string, 64)
	for i := range g.ips {
		g.ips[i] = fmt.Sprintf("192.168.%d.%d", i/16, 1+i%250)
	}
	g.msgPool = []string{
		"request served", "cache miss on shard", "slow query detected",
		"connection reset by peer", "retrying upstream call",
		"rate limit applied", "payload validated", "session refreshed",
		"index lookup complete", "fallback path taken",
	}
	return g
}

// Tenants returns the number of tenants in the workload.
func (g *Generator) Tenants() int { return g.zipf.N() }

// NextTenant draws a tenant id under the Zipfian distribution.
func (g *Generator) NextTenant() int64 { return int64(g.zipf.Next()) }

// Next produces one row: a Zipf-drawn tenant and synthetic request-log
// fields. Timestamps advance by StepMS per row so archived data is
// time-ordered like a real ingest stream.
func (g *Generator) Next() schema.Row {
	row := g.RowForTenant(g.NextTenant())
	return row
}

// RowForTenant produces a row for a specific tenant (used when traffic
// shaping decides the tenant externally, e.g. the hotspot experiments).
func (g *Generator) RowForTenant(tenant int64) schema.Row {
	ts := g.now
	g.now += g.stepMS
	latency := g.latency()
	fail := "false"
	if g.rng.Intn(100) == 0 {
		fail = "true"
	}
	api := g.apis[g.rng.Intn(len(g.apis))]
	ip := g.ips[g.rng.Intn(len(g.ips))]
	msg := fmt.Sprintf("%s tenant=%d path=%s code=%d", g.msgPool[g.rng.Intn(len(g.msgPool))],
		tenant, api, 200+g.rng.Intn(5)*100)
	return schema.Row{
		schema.IntValue(tenant),
		schema.IntValue(ts),
		schema.StringValue(ip),
		schema.StringValue(api),
		schema.IntValue(latency),
		schema.StringValue(fail),
		schema.StringValue(msg),
	}
}

// latency draws a long-tailed request latency in ms (lognormal-ish).
func (g *Generator) latency() int64 {
	v := math.Exp(g.rng.NormFloat64()*1.0 + 3.0) // median ≈ 20ms
	if v > 30000 {
		v = 30000
	}
	if v < 1 {
		v = 1
	}
	return int64(v)
}

// Batch produces n rows.
func (g *Generator) Batch(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = g.Next()
	}
	return rows
}

// NowMS returns the timestamp the next generated row will carry.
func (g *Generator) NowMS() int64 { return g.now }

// DiurnalRate models the daily write-throughput curve from Figure 1:
// traffic peaks during working hours and dips at night. hour is in
// [0, 24); the returned multiplier is in [minFrac, 1].
func DiurnalRate(hour float64, minFrac float64) float64 {
	if minFrac < 0 {
		minFrac = 0
	}
	if minFrac > 1 {
		minFrac = 1
	}
	// Two-peak working-hours curve: main peak ~11:00, secondary ~16:00,
	// trough ~04:00, built from shifted cosines.
	base := 0.5 - 0.5*math.Cos((hour-4)/24*2*math.Pi) // trough at 4am, peak at 4pm
	morning := 0.3 * math.Exp(-(hour-11)*(hour-11)/8) // morning bump
	v := base + morning
	if v > 1 {
		v = 1
	}
	return minFrac + (1-minFrac)*v
}
