// Command adjproxy fronts a fleet of adjserved replicas with the same HTTP
// API adjserved itself serves. Each estimate is split into copy-range shard
// calls, fanned out to replicas chosen by consistent-hashing the graph
// name, and the returned snapshot sets are merged into the bit-identical
// single-node response — so clients, scripts, and the result cache cannot
// tell a proxy from a single server.
//
// Usage:
//
//	adjproxy -replicas http://10.0.0.7:8356,http://10.0.0.8:8356 -demo
//	adjproxy -replicas ... -graphs ./data -shard-retries 4 -hedge-after 300ms
//
// The proxy holds its own catalog (-graphs/-demo) to validate requests and
// key its cache; it must describe the same graphs the replicas serve —
// same names, same content — or shard results will not merge into the
// single-node answer. The API surface is identical to adjserved's:
//
//	POST /v1/estimate              sharded across the fleet
//	POST /v1/distinguish           derived estimator sharded, decision recovered
//	POST /v1/estimate/batch        items scheduled individually
//	GET  /v1/graphs                the proxy's catalog listing
//	GET  /v1/graphs/{name}         the proxy's dataset detail
//	POST /v1/graphs/{name}/edges   applied locally, then forwarded to every replica
//	GET  /healthz                  readiness (503 while draining)
//
// Edge batches apply to the proxy's own catalog first and are then
// forwarded byte-identically to every replica; with matching
// -merge-threshold and -max-versions across the fleet, all nodes advance
// through the same version history, and each sharded estimate pins its
// graph version in the shard spec so replicas run the exact snapshot the
// proxy keyed the result by.
//
// When a shard cannot be completed anywhere — replicas down, retries
// exhausted — the proxy degrades to local single-node execution unless
// -no-fallback is set, in which case the request fails with 503. Health
// probes demote unresponsive replicas in the ring; cluster.* telemetry
// (with -telemetry) exposes every scheduling decision.
//
// On SIGINT/SIGTERM the proxy drains exactly as adjserved does.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"adjstream/internal/cluster"
	"adjstream/internal/daemon"
	"adjstream/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adjproxy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "localhost:8355", "proxy listen address")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts and tests)")
	graphsDir := fs.String("graphs", "", "directory of *.edges / *.txt edge-list files (must mirror the replicas' catalog)")
	demo := fs.Bool("demo", false, "load built-in demo graphs (k16, triangles64, fourcycles64, er400)")
	replicas := fs.String("replicas", "", "comma-separated base URLs of the adjserved fleet (required)")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Second, "deadline for each shard attempt against a replica")
	shardRetries := fs.Int("shard-retries", 3, "attempts per shard before the run falls back (rotating replicas)")
	hedgeAfter := fs.Duration("hedge-after", 0, "duplicate a slow shard attempt to the next replica after this delay (0 = off)")
	probeInterval := fs.Duration("probe-interval", 3*time.Second, "how often replica /healthz is polled (negative = never)")
	maxShards := fs.Int("max-shards", 0, "max shard calls per request (0 = one per replica)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per replica on the hash ring")
	noFallback := fs.Bool("no-fallback", false, "fail with 503 instead of running locally when no replica can complete a request")
	workers := fs.Int("workers", 0, "max concurrent local-fallback estimations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", -1, "admitted requests waiting for a worker beyond the slots (-1 = 2x workers, 0 = reject immediately)")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "cap on per-request deadlines")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	cacheEntries := fs.Int("cache-entries", 4096, "max cached results across all shards")
	cacheTTL := fs.Duration("cache-ttl", 0, "expire cached results after this age (0 = only LRU eviction)")
	noCache := fs.Bool("no-cache", false, "disable the result cache and request coalescing")
	mergeThreshold := fs.Int("merge-threshold", serve.DefaultMergeThreshold, "pending ingested edge ops that force a merge into a new graph version (match the replicas')")
	maxVersions := fs.Int("max-versions", serve.DefaultMaxVersions, "published graph versions retained for version-pinned shard requests (match the replicas')")
	teleAddr := fs.String("telemetry", "", "also serve /debug/vars and /debug/pprof on this address, and dump a metrics snapshot on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "adjproxy: unexpected arguments:", fs.Args())
		return 2
	}
	if *replicas == "" {
		fmt.Fprintln(stderr, "adjproxy: no replicas (use -replicas URL,URL,...)")
		return 2
	}
	var fleet []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			fleet = append(fleet, u)
		}
	}
	if len(fleet) == 0 {
		fmt.Fprintln(stderr, "adjproxy: no replicas (use -replicas URL,URL,...)")
		return 2
	}
	if *graphsDir == "" && !*demo {
		fmt.Fprintln(stderr, "adjproxy: no catalog (use -graphs DIR and/or -demo, mirroring the replicas)")
		return 2
	}

	entries := *cacheEntries
	if *noCache || entries == 0 {
		entries = -1
	}
	var sched *cluster.Scheduler
	defer func() {
		if sched != nil {
			sched.Close()
		}
	}()
	return daemon.Run(daemon.Config{
		Name:           "adjproxy",
		Listen:         *listen,
		AddrFile:       *addrFile,
		GraphsDir:      *graphsDir,
		Demo:           *demo,
		MergeThreshold: *mergeThreshold,
		MaxVersions:    *maxVersions,
		DrainTimeout:   *drainTimeout,
		TeleAddr:       *teleAddr,
	}, stdout, stderr, func(cat *serve.Catalog) (*serve.Server, func(net.Addr) string, error) {
		var err error
		sched, err = cluster.New(cluster.Config{
			Replicas:      fleet,
			ShardTimeout:  *shardTimeout,
			Attempts:      *shardRetries,
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeInterval,
			MaxShards:     *maxShards,
			VirtualNodes:  *vnodes,
		})
		if err != nil {
			return nil, nil, err
		}
		srv := serve.New(cat, serve.Config{
			Workers:         *workers,
			Queue:           daemon.ServeQueue(*queue),
			MaxTimeout:      *maxTimeout,
			CacheEntries:    entries,
			CacheTTL:        *cacheTTL,
			Remote:          sched.Run,
			NoLocalFallback: *noFallback,
			RemoteIngest:    sched.Mutate,
		})
		return srv, func(addr net.Addr) string {
			return fmt.Sprintf("proxying %d graphs to %d replicas on http://%s", cat.Len(), len(fleet), addr)
		}, nil
	})
}
