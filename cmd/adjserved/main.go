// Command adjserved serves cycle-count estimates over HTTP: graphs are
// loaded once into a catalog, and each request runs a library estimator
// under a per-request deadline through a bounded worker pool.
//
// Usage:
//
//	adjserved -graphs ./data -listen localhost:8356
//	adjserved -demo -workers 4 -queue 8
//
// API:
//
//	POST /v1/estimate              {"graph":"...","algorithm":"exact", ...}
//	POST /v1/distinguish           {"graph":"...","cycle_len":3, ...}
//	POST /v1/estimate/batch        {"requests":[{...},{...}]}
//	GET  /v1/graphs                catalog listing
//	GET  /v1/graphs/{name}         dataset detail (fingerprint, version, degrees)
//	POST /v1/graphs/{name}/edges   live edge ingestion (batched, idempotent)
//	GET  /healthz                  readiness (503 while draining)
//
// Graphs mutate through edge batches: ops stage into a delta and merge
// into a new immutable graph version either every -merge-threshold ops or
// on a batch's "flush" flag; every estimate pins one version end-to-end
// and echoes it as graph_version/graph_fingerprint.
//
// Results are deterministic in (graph, algorithm, options, seed), so the
// server caches them: repeat requests are answered from a sharded LRU
// (see -cache-entries, -cache-ttl, -no-cache; the X-Cache response header
// reports hit/miss/coalesced/bypass) and concurrent identical requests
// are coalesced into a single estimation run.
//
// On SIGINT/SIGTERM the server drains: /healthz flips to 503 so load
// balancers stop routing, new estimation work is rejected, in-flight
// requests run to completion (bounded by -drain-timeout), and — with
// -telemetry — the final metrics snapshot is written to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"adjstream/internal/daemon"
	"adjstream/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adjserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "localhost:8356", "service listen address")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts and tests)")
	graphsDir := fs.String("graphs", "", "directory of *.edges / *.txt edge-list files to serve")
	demo := fs.Bool("demo", false, "load built-in demo graphs (k16, triangles64, fourcycles64, er400)")
	workers := fs.Int("workers", 0, "max concurrent estimations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", -1, "admitted requests waiting for a worker beyond the slots (-1 = 2x workers, 0 = reject immediately)")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "cap on per-request deadlines")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	cacheEntries := fs.Int("cache-entries", 4096, "max cached results across all shards")
	cacheTTL := fs.Duration("cache-ttl", 0, "expire cached results after this age (0 = only LRU eviction)")
	noCache := fs.Bool("no-cache", false, "disable the result cache and request coalescing")
	mergeThreshold := fs.Int("merge-threshold", serve.DefaultMergeThreshold, "pending ingested edge ops that force a merge into a new graph version")
	maxVersions := fs.Int("max-versions", serve.DefaultMaxVersions, "published graph versions retained for version-pinned shard requests")
	teleAddr := fs.String("telemetry", "", "also serve /debug/vars and /debug/pprof on this address, and dump a metrics snapshot on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "adjserved: unexpected arguments:", fs.Args())
		return 2
	}
	if *graphsDir == "" && !*demo {
		fmt.Fprintln(stderr, "adjserved: no graphs to serve (use -graphs DIR and/or -demo)")
		return 2
	}

	entries := *cacheEntries
	if *noCache || entries == 0 {
		entries = -1
	}
	return daemon.Run(daemon.Config{
		Name:           "adjserved",
		Listen:         *listen,
		AddrFile:       *addrFile,
		GraphsDir:      *graphsDir,
		Demo:           *demo,
		MergeThreshold: *mergeThreshold,
		MaxVersions:    *maxVersions,
		DrainTimeout:   *drainTimeout,
		TeleAddr:       *teleAddr,
	}, stdout, stderr, func(cat *serve.Catalog) (*serve.Server, func(net.Addr) string, error) {
		srv := serve.New(cat, serve.Config{
			Workers:      *workers,
			Queue:        *queue,
			MaxTimeout:   *maxTimeout,
			CacheEntries: entries,
			CacheTTL:     *cacheTTL,
		})
		return srv, func(addr net.Addr) string {
			return fmt.Sprintf("serving %d graphs on http://%s (workers %d, queue %d)",
				cat.Len(), addr, srv.Pool().Workers(), srv.Pool().Queue())
		}, nil
	})
}
