package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"logstore"
)

func newServer(t *testing.T) (*httptest.Server, *logstore.Cluster) {
	t.Helper()
	cluster, err := logstore.Open(logstore.Config{
		Workers:         2,
		ShardsPerWorker: 2,
		ArchiveInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(cluster))
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})
	return srv, cluster
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.String()
}

func TestAppendAndQueryOverHTTP(t *testing.T) {
	srv, _ := newServer(t)
	records := `[
		{"tenant":7,"ts":1000,"ip":"10.0.0.1","api":"/q","latency":42,"fail":"false","log":"served fast"},
		{"tenant":7,"ts":1001,"ip":"10.0.0.2","api":"/q","latency":900,"fail":"true","log":"upstream timeout"}
	]`
	resp, body := post(t, srv.URL+"/append", records)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"appended":2`) {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}

	resp, body = post(t, srv.URL+"/query",
		"SELECT log FROM request_log WHERE tenant_id = 7 AND ts >= 0 AND ts <= 2000 AND fail = 'true'")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0] != "upstream timeout" {
		t.Fatalf("rows = %+v", qr.Rows)
	}
	if qr.TookMS <= 0 {
		t.Error("took_ms missing")
	}
	for _, counter := range []string{`"stats":{`, `"index_lookups":`, `"preds_implied_by_sma":`, `"index_leaves_scanned":`} {
		if !strings.Contains(body, counter) {
			t.Errorf("query response lacks %s: %s", counter, body)
		}
	}
}

func TestQueryGroupsOverHTTP(t *testing.T) {
	srv, _ := newServer(t)
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{
			Tenant: 1, TS: int64(1000 + i), IP: fmt.Sprintf("10.0.0.%d", i%2),
			API: "/q", Latency: 5, Fail: "false", Log: "m",
		})
	}
	raw, _ := json.Marshal(recs)
	if resp, body := post(t, srv.URL+"/append", string(raw)); resp.StatusCode != 200 {
		t.Fatal(body)
	}
	_, body := post(t, srv.URL+"/query",
		"SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 0 AND ts <= 9999 GROUP BY ip ORDER BY count DESC")
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Groups) != 2 || qr.Groups[0]["count"] != "5" {
		t.Fatalf("groups = %+v", qr.Groups)
	}
}

func TestAppendDefaultsTimestamp(t *testing.T) {
	srv, _ := newServer(t)
	if resp, body := post(t, srv.URL+"/append",
		`[{"tenant":3,"ip":"1.2.3.4","api":"/x","latency":1,"fail":"false","log":"now"}]`); resp.StatusCode != 200 {
		t.Fatal(body)
	}
	now := time.Now().UnixMilli()
	_, body := post(t, srv.URL+"/query", fmt.Sprintf(
		"SELECT COUNT(*) FROM request_log WHERE tenant_id = 3 AND ts >= %d AND ts <= %d",
		now-60_000, now+60_000))
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 1 {
		t.Fatalf("count = %d (ts<=0 should default to now)", qr.Count)
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := newServer(t)
	cases := []struct {
		path, body string
	}{
		{"/append", "not json"},
		{"/query", "NOT SQL AT ALL"},
		{"/query", "SELECT log FROM request_log WHERE latency > 5"}, // no tenant
	}
	for _, tc := range cases {
		resp, _ := post(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	// Bad tenant id / retention parameter.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/tenants/abc/retention?hours=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tenant id: status %d", resp.StatusCode)
	}
	// Negative, non-finite, and past time.Duration's range (which would
	// wrap to a negative "keep forever" retention) are all refused.
	for _, hours := range []string{"-3", "NaN", "Inf", "-Inf", "3e6", "1e300"} {
		req, _ = http.NewRequest(http.MethodPut, srv.URL+"/tenants/5/retention?hours="+hours, nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("hours=%s: status %d", hours, resp.StatusCode)
		}
	}
}

func TestUsageBlocksRetentionEndpoints(t *testing.T) {
	srv, cluster := newServer(t)
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, Record{Tenant: 9, TS: int64(1000 + i), IP: "1.1.1.1",
			API: "/x", Latency: 1, Fail: "false", Log: "m"})
	}
	raw, _ := json.Marshal(recs)
	if resp, body := post(t, srv.URL+"/append", string(raw)); resp.StatusCode != 200 {
		t.Fatal(body)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/tenants/9/usage")
	if err != nil {
		t.Fatal(err)
	}
	var usage struct {
		Tenant, Rows, Bytes int64
	}
	if err := json.NewDecoder(resp.Body).Decode(&usage); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if usage.Rows != 50 || usage.Bytes <= 0 {
		t.Fatalf("usage = %+v", usage)
	}

	resp, err = http.Get(srv.URL + "/tenants/9/blocks")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []logstore.BlockInfo
	if err := json.NewDecoder(resp.Body).Decode(&blocks); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(blocks) == 0 {
		t.Fatal("no blocks listed")
	}

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/tenants/9/retention?hours=24", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retention: %d", resp.StatusCode)
	}
	// Expire far in the future: tenant 9's blocks are deleted.
	removed := cluster.ExpireNow(time.Now().UnixMilli() + 365*24*3600_000)
	if removed == 0 {
		t.Error("retention set over HTTP had no effect")
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, cluster := newServer(t)
	if resp, body := post(t, srv.URL+"/append",
		`[{"tenant":2,"ts":500,"ip":"9.9.9.9","api":"/s","latency":3,"fail":"false","log":"stat me"}]`); resp.StatusCode != 200 {
		t.Fatal(body)
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats logstore.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 2 || stats.Shards != 4 {
		t.Errorf("topology stats = %+v", stats)
	}
	if stats.ArchivedRows != 1 || stats.ArchivedBlocks == 0 {
		t.Errorf("archive stats = %+v", stats)
	}
	if stats.RouteRules == 0 {
		t.Errorf("route stats = %+v", stats)
	}
}
