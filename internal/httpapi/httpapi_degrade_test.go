package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"logstore"
)

// degradeServer opens a cluster with a tiny per-tenant admission budget
// so a single oversized batch trips the shed path.
func degradeServer(t *testing.T) (http.Handler, *logstore.Cluster) {
	t.Helper()
	cluster, err := logstore.Open(logstore.Config{
		Workers:               2,
		ShardsPerWorker:       2,
		ArchiveInterval:       time.Hour,
		AdmitTenantRowsPerSec: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return Handler(cluster), cluster
}

func appendBody(t *testing.T, tenant int64, n int) string {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Tenant: tenant, TS: int64(1000 + i), IP: "1.1.1.1",
			API: "/x", Latency: 1, Fail: "false", Log: "m"}
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestAppendOverloadedMapsTo429RetryAfter: an admission shed surfaces
// as 429 Too Many Requests with a positive integer Retry-After header.
func TestAppendOverloadedMapsTo429RetryAfter(t *testing.T) {
	h, _ := degradeServer(t)
	// Burst = rate × 1s = 20 rows: the first batch drains the bucket,
	// the second is shed.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append",
		strings.NewReader(appendBody(t, 7, 20))))
	if rec.Code != http.StatusOK {
		t.Fatalf("first batch: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append",
		strings.NewReader(appendBody(t, 7, 20))))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed batch: %d %s, want 429", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", ra)
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("shed body %q should name the overload", rec.Body.String())
	}
}

// TestOtherTenantUnaffectedByShed: shedding tenant 7 must not consume
// tenant 8's budget — the isolation admission control exists for.
func TestOtherTenantUnaffectedByShed(t *testing.T) {
	h, _ := degradeServer(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append",
		strings.NewReader(appendBody(t, 7, 40)))) // over budget outright
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("hot tenant: %d, want 429", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append",
		strings.NewReader(appendBody(t, 8, 20))))
	if rec.Code != http.StatusOK {
		t.Fatalf("cold tenant: %d %s, want 200", rec.Code, rec.Body.String())
	}
}

// TestExpiredDeadlineMapsTo503: a request whose context is already dead
// gets 503 Service Unavailable, for both verbs.
func TestExpiredDeadlineMapsTo503(t *testing.T) {
	h, _ := degradeServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader("SELECT COUNT(*) FROM request_log WHERE tenant_id = 7 AND ts >= 0"))
	h.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead-context query: %d %s, want 503", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/append",
		strings.NewReader(appendBody(t, 9, 5)))
	h.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead-context append: %d %s, want 503", rec.Code, rec.Body.String())
	}
}
