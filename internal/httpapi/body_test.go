package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"logstore"
)

// spaces is an io.Reader of n ASCII spaces, so a test can send a body
// of any length without holding it.
type spaces int64

func (s *spaces) Read(p []byte) (int, error) {
	if *s <= 0 {
		return 0, io.EOF
	}
	n := min(int64(len(p)), int64(*s))
	for i := range p[:n] {
		p[i] = ' '
	}
	*s -= spaces(n)
	return int(n), nil
}

// paddedBody returns head, then spaces, then tail: total bytes long.
func paddedBody(head, tail string, total int64) io.Reader {
	pad := spaces(total - int64(len(head)+len(tail)))
	return io.MultiReader(strings.NewReader(head), &pad, strings.NewReader(tail))
}

// serve runs one request through the handler without a network hop.
func serve(h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

// TestOversizedQueryIsRefused: a statement one byte over the limit is
// answered 413 and not run, though its first 1 MiB is a query that
// would run; one exactly at the limit runs.
func TestOversizedQueryIsRefused(t *testing.T) {
	_, cluster := newServer(t)
	h := Handler(cluster)
	if rec := serve(h, "/append", strings.NewReader(
		`[{"tenant":7,"ts":1000,"ip":"10.0.0.1","api":"/q","latency":42,"fail":"true","log":"archived"}]`)); rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	// The query reads the archived block, so running it moves the block
	// cache's counters.
	const sql = "SELECT log FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 2000 AND fail = 'true'"
	cacheReads := func() int64 {
		s := cluster.Stats()
		return s.CacheMemHits + s.CacheMemMisses
	}

	before := cacheReads()
	rec := serve(h, "/query", paddedBody(sql, " AND latency > 0", maxQueryBody+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("query over the limit: %d %s, want 413", rec.Code, rec.Body)
	}
	if after := cacheReads(); after != before {
		t.Errorf("the refused query read %d blocks", after-before)
	}

	rec = serve(h, "/query", paddedBody(sql, " AND latency > 0", maxQueryBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("query at the limit: %d %s", rec.Code, rec.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || cacheReads() == before {
		t.Fatalf("query at the limit: rows %v, cache reads %d → %d", qr.Rows, before, cacheReads())
	}
}

// TestOversizedAppendIsRefused: an append body one byte over the limit
// is answered 413 and appends nothing.
func TestOversizedAppendIsRefused(t *testing.T) {
	_, cluster := newServer(t)
	rec := serve(Handler(cluster), "/append", paddedBody(
		`[{"tenant":7,"ts":1000,"ip":"10.0.0.1","api":"/q","latency":42,"fail":"false","log":"too late"}`, "]",
		maxAppendBody+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("append over the limit: %d %s, want 413", rec.Code, rec.Body)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := cluster.Stats(); s.ResidentRows != 0 || s.ArchivedRows != 0 {
		t.Fatalf("a refused append stored rows: %d resident, %d archived", s.ResidentRows, s.ArchivedRows)
	}
}

// fuzzCluster opens a one-worker cluster that never archives on its
// own, so the rows an append adds stay resident where a fuzz target can
// count them.
func fuzzCluster(tb testing.TB) *logstore.Cluster {
	cluster, err := logstore.Open(logstore.Config{
		Workers:         1,
		ShardsPerWorker: 2,
		ArchiveInterval: time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cluster.Close)
	return cluster
}

// FuzzAppendBody: whatever the body, /append neither panics nor answers
// 5xx, and a 200 reports exactly the records the body decodes to, all
// of which become resident rows. Each input gets a fresh cluster: a
// shard suppresses a tenant's rows it has applied before, so on a shared
// one a repeated body would add nothing.
func FuzzAppendBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		cluster := fuzzCluster(t)
		rec := serve(Handler(cluster), "/append", strings.NewReader(string(body)))
		if rec.Code >= 500 {
			t.Fatalf("append %q: %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var recs []Record
		if err := json.NewDecoder(strings.NewReader(string(body))).Decode(&recs); err != nil {
			t.Fatalf("append %q answered 200, but the body does not decode: %v", body, err)
		}
		var resp struct{ Appended *int }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Appended == nil || *resp.Appended != len(recs) {
			t.Fatalf("append of %d records answered %s", len(recs), rec.Body)
		}
		// An ack precedes the apply: wait for the rows to land.
		for deadline := time.Now().Add(5 * time.Second); cluster.Stats().ResidentRows != int64(len(recs)); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d rows resident after appending %d", cluster.Stats().ResidentRows, len(recs))
			}
		}
	})
}

// FuzzQueryBody: whatever the statement, /query neither panics nor
// answers 5xx.
func FuzzQueryBody(f *testing.F) {
	cluster := fuzzCluster(f)
	h := Handler(cluster)
	if rec := serve(h, "/append", strings.NewReader(
		`[{"tenant":7,"ts":1000,"ip":"10.0.0.1","api":"/q","latency":42,"fail":"true","log":"upstream timeout"}]`)); rec.Code != http.StatusOK {
		f.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if rec := serve(h, "/query", strings.NewReader(sql)); rec.Code >= 500 {
			t.Fatalf("query %q: %d %s", sql, rec.Code, rec.Body)
		}
	})
}
