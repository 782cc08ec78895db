// Package httpapi exposes a Cluster over HTTP — the protocol front end
// standing in for the paper's SQL protocol + SLB. The logstore-server
// command wires it to a listener; tests drive it with httptest.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"logstore"
	"logstore/internal/backpressure"
)

// Record is the JSON wire form of one request_log row.
type Record struct {
	Tenant  int64  `json:"tenant"`
	TS      int64  `json:"ts"` // ms; <= 0 means "now"
	IP      string `json:"ip"`
	API     string `json:"api"`
	Latency int64  `json:"latency"`
	Fail    string `json:"fail"`
	Log     string `json:"log"`
}

// Row converts the record to a cluster row.
func (r Record) Row(now int64) logstore.Row {
	ts := r.TS
	if ts <= 0 {
		ts = now
	}
	return logstore.Row{
		logstore.IntValue(r.Tenant),
		logstore.IntValue(ts),
		logstore.StringValue(r.IP),
		logstore.StringValue(r.API),
		logstore.IntValue(r.Latency),
		logstore.StringValue(r.Fail),
		logstore.StringValue(r.Log),
	}
}

// QueryResponse is the JSON wire form of a query result.
type QueryResponse struct {
	Columns []string            `json:"columns"`
	Rows    [][]string          `json:"rows,omitempty"`
	Count   int64               `json:"count,omitempty"`
	Groups  []map[string]string `json:"groups,omitempty"`
	TookMS  float64             `json:"took_ms"`
	// Stats says why the query cost what it did: LogBlocks examined and
	// skipped, comparisons the SMAs implied, index probes and leaves,
	// column blocks decoded and skipped.
	Stats logstore.ExecStats `json:"stats"`
}

// Handler returns the API's http.Handler over the cluster.
func Handler(cluster *logstore.Cluster) http.Handler {
	s := &server{cluster: cluster}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /tenants/{id}/usage", s.handleUsage)
	mux.HandleFunc("GET /tenants/{id}/blocks", s.handleBlocks)
	mux.HandleFunc("PUT /tenants/{id}/retention", s.handleRetention)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

type server struct {
	cluster *logstore.Cluster
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.WriteHeader(code)
	fmt.Fprintln(w, err.Error())
}

// writeLoadError maps load-related failures to protocol semantics:
// admission sheds become 429 with a Retry-After hint, queue saturation
// becomes a plain 429, and a dead request context (client gone, or the
// deadline it set expired) becomes 503 — the request didn't fail, the
// time budget did. Returns false for errors it doesn't own.
func writeLoadError(w http.ResponseWriter, err error) bool {
	var over *backpressure.ErrOverloaded
	switch {
	case errors.As(err, &over):
		secs := int64(over.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1 // sub-second hints still must parse as a positive header
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, backpressure.ErrBackpressure):
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		return false
	}
	return true
}

// The largest request bodies the API reads: an append's JSON array and
// a query's SQL statement. A longer body is refused whole with 413; it
// is never cut to the limit and used.
const (
	maxAppendBody = 64 << 20
	maxQueryBody  = 1 << 20
)

// bodyError answers a failed body read: 413 when the body was over its
// limit, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var recs []Record
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBody)).Decode(&recs); err != nil {
		bodyError(w, fmt.Errorf("decode body: %w", err))
		return
	}
	rows := make([]logstore.Row, len(recs))
	now := time.Now().UnixMilli()
	for i, rec := range recs {
		rows[i] = rec.Row(now)
	}
	if err := s.cluster.AppendContext(r.Context(), rows...); err != nil {
		if !writeLoadError(w, err) {
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	fmt.Fprintf(w, `{"appended":%d}`+"\n", len(rows))
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sqlBytes, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	start := time.Now()
	res, err := s.cluster.QueryContext(r.Context(), string(sqlBytes))
	if err != nil {
		if !writeLoadError(w, err) {
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	resp := QueryResponse{
		Columns: res.Columns,
		Count:   res.Count,
		TookMS:  float64(time.Since(start).Microseconds()) / 1000,
		Stats:   res.Stats,
	}
	for _, row := range res.Rows {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.String()
		}
		resp.Rows = append(resp.Rows, out)
	}
	for _, g := range res.Groups {
		resp.Groups = append(resp.Groups, map[string]string{
			"key":   g.Key.String(),
			"count": strconv.FormatInt(g.Count, 10),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.cluster.Stats())
}

func tenantID(r *http.Request) (int64, error) {
	return strconv.ParseInt(r.PathValue("id"), 10, 64)
}

func (s *server) handleUsage(w http.ResponseWriter, r *http.Request) {
	id, err := tenantID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rows, bytes := s.cluster.TenantUsage(id)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"tenant":%d,"rows":%d,"bytes":%d}`+"\n", id, rows, bytes)
}

func (s *server) handleBlocks(w http.ResponseWriter, r *http.Request) {
	id, err := tenantID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	blocks := s.cluster.TenantBlocks(id)
	if blocks == nil {
		blocks = []logstore.BlockInfo{}
	}
	_ = json.NewEncoder(w).Encode(blocks)
}

func (s *server) handleRetention(w http.ResponseWriter, r *http.Request) {
	id, err := tenantID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hours, err := strconv.ParseFloat(r.URL.Query().Get("hours"), 64)
	// NaN fails hours >= 0, and a duration past time.Duration's range
	// would wrap negative, which SetRetention reads as "keep forever".
	if err != nil || !(hours >= 0) || hours*float64(time.Hour) >= math.MaxInt64 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad hours parameter"))
		return
	}
	s.cluster.SetRetention(id, time.Duration(hours*float64(time.Hour)))
	fmt.Fprintf(w, `{"tenant":%d,"retention_hours":%g}`+"\n", id, hours)
}
