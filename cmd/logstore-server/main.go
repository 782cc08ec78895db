// Command logstore-server runs a single-process LogStore cluster with
// an HTTP front end (standing in for the paper's SQL protocol + SLB).
//
//	logstore-server -addr :8080 -workers 3 -data-dir /var/lib/logstore
//
// Endpoints (see internal/httpapi):
//
//	POST /append     body: JSON array of records
//	                 [{"tenant":1,"ts":0,"ip":"10.0.0.1","api":"/q",
//	                   "latency":12,"fail":"false","log":"..."}, ...]
//	                 ts<=0 means "now".
//	POST /query      body: SQL text; response: JSON result
//	GET  /tenants/{id}/usage
//	GET  /tenants/{id}/blocks
//	PUT  /tenants/{id}/retention?hours=H   (0 = keep forever)
//	GET  /healthz
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"logstore"
	"logstore/internal/httpapi"
	"logstore/internal/oss"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 3, "worker nodes")
		shards     = flag.Int("shards-per-worker", 4, "shards per worker")
		balance    = flag.Duration("balance-interval", 30*time.Second, "hotspot manager cadence")
		expire     = flag.Duration("expire-interval", time.Minute, "retention enforcement cadence")
		cacheDir   = flag.String("cache-dir", "", "SSD block-cache directory (empty = memory only)")
		dataDir    = flag.String("data-dir", "", "durable raft-WAL directory (empty = in-memory raft logs)")
		storeDir   = flag.String("store-dir", "", "directory-backed object store (empty = in-memory; set for durable LogBlocks)")
		admitRows  = flag.Float64("admit-rows-per-sec", 0, "per-tenant admission budget in rows/s (0 = unlimited)")
		admitBytes = flag.Float64("admit-bytes-per-sec", 0, "per-tenant admission budget in bytes/s (0 = unlimited)")
		admitTotal = flag.Int64("admit-global-bytes", 0, "global in-flight append byte budget (0 = unlimited)")
	)
	flag.Parse()

	var store oss.Store
	if *storeDir != "" {
		ds, err := oss.NewDirStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		store = ds
	}
	cluster, err := logstore.Open(logstore.Config{
		Workers:         *workers,
		ShardsPerWorker: *shards,
		Store:           store,
		BalanceInterval: *balance,
		ExpireInterval:  *expire,
		CacheDir:        *cacheDir,
		DataDir:         *dataDir,

		AdmitTenantRowsPerSec:  *admitRows,
		AdmitTenantBytesPerSec: *admitBytes,
		AdmitGlobalBytes:       *admitTotal,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	srv := &http.Server{Addr: *addr, Handler: httpapi.Handler(cluster)}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		log.Println("shutting down")
		_ = srv.Close()
	}()
	log.Printf("logstore-server listening on %s (%d workers × %d shards)",
		*addr, *workers, *shards)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}
