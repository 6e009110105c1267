package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"adjstream"
	"adjstream/internal/arbitrary"
	"adjstream/internal/cluster"
	"adjstream/internal/core"
	"adjstream/internal/serve"
	"adjstream/internal/stream"
)

// The ladder times the benchmark's own calls into each module's public
// functions on the inputs the probe requests carried, one rung per layer:
//
//	traverse  stream.Run of a no-op estimator (the k-copy broadcast for tri-k9)
//	kernel    the estimator copies themselves, minus traverse
//	library   adjstream.EstimateContext/DistinguishContext, minus kernel
//	handler   serve's Handler().ServeHTTP into a recorder, minus library
//	http      the served request's client latency minus its elapsed_ms
//	          (everything outside the server's run), minus handler
//
// Each rung's self time is its median minus the median of the rung it
// wraps. unaccounted is the class's end-to-end median minus the sum of the
// rungs; it is what the server's own run took beyond the in-process one.

// noop is a stream estimator that only reads the stream, so running it
// times traversal alone.
type noop struct {
	passes int
	sink   uint64
}

func (n *noop) Passes() int           { return n.passes }
func (n *noop) StartPass(int)         {}
func (n *noop) StartList(adjstream.V) {}
func (n *noop) Edge(_, v adjstream.V) { n.sink += uint64(v) }
func (n *noop) EndList(adjstream.V)   {}
func (n *noop) EndPass(int)           {}
func (n *noop) Estimate() float64     { return float64(n.sink) }
func (n *noop) SpaceWords() int64     { return 1 }
func (n *noop) EdgeBatch(_, nbrs []uint32, _ []int32) {
	for _, v := range nbrs {
		n.sink += uint64(v)
	}
}

// probeResult is what the served probe of one class measured.
type probeResult struct {
	e2e      time.Duration // median client latency
	overhead time.Duration // median client latency minus elapsed_ms
}

type ladder struct {
	ctx    context.Context
	in     *inputs
	tr     *tracer
	parent uint64
	cfg    config
	cat    *serve.Catalog
	h      http.Handler
	m      map[string]float64
}

func newLadder(ctx context.Context, in *inputs, tr *tracer, parent uint64, cfg config, m map[string]float64) (*ladder, error) {
	cat := serve.NewCatalog()
	if _, err := cat.LoadDir(in.graphDir); err != nil {
		return nil, err
	}
	return &ladder{ctx: ctx, in: in, tr: tr, parent: parent, cfg: cfg, cat: cat,
		h: serve.New(cat, serve.Config{}).Handler(), m: m}, nil
}

func (l *ladder) reps(n int) int { return l.cfg.reps(n) }

// timed runs f as one span and returns its duration.
func (l *ladder) timed(parent uint64, name string, f func() error) (time.Duration, error) {
	_, end := l.tr.begin(parent, name)
	t := time.Now()
	err := f()
	d := time.Since(t)
	end()
	return d, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocsOf counts heap allocations made by f.
func allocsOf(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

func (l *ladder) stream(graph string) (*adjstream.Stream, error) {
	ds, ok := l.cat.Get(graph)
	if !ok {
		return nil, fmt.Errorf("ladder: no graph %q", graph)
	}
	return ds.Stream("", 0)
}

// serveHTTP runs one request through the in-process handler.
func (l *ladder) serveHTTP(o *op) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	l.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: status %d: %s", o.path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// kernelFor builds the single estimator copy a k=1 class runs.
func kernelFor(class string, seed uint64) (stream.Estimator, string, error) {
	tc := core.TriangleConfig{SampleSize: sampleSize, Seed: seed}
	switch class {
	case "tri-k1":
		e, err := core.NewTwoPassTriangle(tc)
		return e, "twopass-triangle", err
	case "tri3-k1":
		e, err := core.NewThreePassTriangle(tc)
		return e, "threepass-triangle", err
	case "c4-k1":
		e, err := core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: sampleSize, Seed: seed})
		return e, "twopass-fourcycle", err
	case "dist3":
		// DistinguishContext derives naive-twopass for cycle length 3.
		e, err := core.NewNaiveTwoPass(tc)
		return e, "naive-twopass", err
	}
	return nil, "", fmt.Errorf("ladder: no kernel for %s", class)
}

// library runs one spec through the facade, as the server's run does.
func library(ctx context.Context, st *adjstream.Stream, o *op) (adjstream.Result, error) {
	r := o.specs[0]
	if o.kind == "distinguish" {
		opts := optionsOf(r)
		opts.CycleLen = 0
		_, res, err := adjstream.DistinguishContext(ctx, st, r.CycleLen, opts)
		return res, err
	}
	return adjstream.EstimateContext(ctx, st, optionsOf(r))
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(quantile(v, 0.5))
}

// share records self/e2e under ladder.<class>.<rung>.share.
func (l *ladder) share(class, rung string, self, e2e time.Duration) {
	l.m[fmt.Sprintf("ladder.%s.%s.share", class, rung)] = float64(self) / float64(e2e)
}

// classK1 measures the rungs of a one-copy class and the per-item kernel
// figures of its estimator.
func (l *ladder) classK1(class string, probe []op, pr probeResult) error {
	cid, end := l.tr.begin(l.parent, "ladder."+class)
	defer end()
	st, err := l.stream(probe[0].specs[0].Graph)
	if err != nil {
		return err
	}
	var trav, kern, lib, hdl []time.Duration
	var passes int
	var space int64
	var alg string
	for i := 0; i < l.reps(len(probe)); i++ {
		o := &probe[i]
		seed := o.specs[0].EffectiveSeed()
		e, name, err := kernelFor(class, seed)
		if err != nil {
			return err
		}
		alg, passes = name, e.Passes()
		d, _ := l.timed(cid, "ladder."+class+".traverse", func() error {
			stream.Run(st, &noop{passes: passes})
			return nil
		})
		trav = append(trav, d)
		d, _ = l.timed(cid, "ladder."+class+".kernel", func() error {
			stream.Run(st, e)
			return nil
		})
		kern = append(kern, d)
		if i == 0 {
			space = e.SpaceWords()
		}
		d, err = l.timed(cid, "ladder."+class+".library", func() error {
			_, err := library(l.ctx, st, o)
			return err
		})
		if err != nil {
			return err
		}
		lib = append(lib, d)
		d, err = l.timed(cid, "ladder."+class+".handler", func() error { return l.serveHTTP(o) })
		if err != nil {
			return err
		}
		hdl = append(hdl, d)
	}
	e, _, err := kernelFor(class, probe[0].specs[0].EffectiveSeed())
	if err != nil {
		return err
	}
	allocs, _ := allocsOf(func() error { stream.Run(st, e); return nil })

	items := float64(passes * st.Len())
	t, k, lb, h := median(trav), median(kern), median(lib), median(hdl)
	pre := "core." + alg
	l.m[pre+".ns_per_item"] = float64(k) / items
	l.m[pre+".allocs_per_item"] = float64(allocs) / items
	l.m[pre+".space_words"] = float64(space)
	if class == "tri-k1" {
		l.m["stream.traverse.ns_per_item"] = float64(t) / items
		l.m["serve.handler_miss_ms"] = ms(h)
	}
	l.m["adjstream.estimate_ms."+class] = ms(lb)
	l.share(class, "traverse", t, pr.e2e)
	l.share(class, "kernel", k-t, pr.e2e)
	l.share(class, "library", lb-k, pr.e2e)
	l.share(class, "handler", h-lb, pr.e2e)
	l.share(class, "http", pr.overhead-(h-lb), pr.e2e)
	l.share(class, "unaccounted", pr.e2e-lb-pr.overhead, pr.e2e)
	return nil
}

// spaceRatios puts the paper's space bounds beside the estimator rows:
// space_words / (m/T^{2/3}) for Theorem 3.7 and / (m/T^{3/8}) for
// Theorem 4.6, with T from the exact counters.
func (l *ladder) spaceRatios() {
	g := l.in.graphs[gER]
	m := float64(g.M())
	t3 := float64(g.Triangles())
	t4 := float64(g.FourCycles())
	l.m["core.twopass-triangle.space_ratio"] = l.m["core.twopass-triangle.space_words"] / (m / math.Pow(t3, 2.0/3))
	l.m["core.twopass-fourcycle.space_ratio"] = l.m["core.twopass-fourcycle.space_words"] / (m / math.Pow(t4, 3.0/8))
}

// classK9 measures tri-k9: the broadcast driver over nine copies, plus the
// sequential and replay drivers on the same copies for comparison.
func (l *ladder) classK9(probe []op, pr probeResult) error {
	const class = "tri-k9"
	cid, end := l.tr.begin(l.parent, "ladder."+class)
	defer end()
	st, err := l.stream(probe[0].specs[0].Graph)
	if err != nil {
		return err
	}
	copiesFor := func(seed uint64) ([]stream.Estimator, error) {
		out := make([]stream.Estimator, 9)
		for i := range out {
			// adjstream's per-copy seed schedule.
			e, err := core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: sampleSize, Seed: seed + uint64(i)*0x9e37_79b9 + 1})
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}
	var trav, kern, lib, hdl, seq, rep []time.Duration
	var reads int64
	for i := 0; i < l.reps(len(probe)); i++ {
		o := &probe[i]
		seed := o.specs[0].EffectiveSeed()
		noops := make([]stream.Estimator, 9)
		for j := range noops {
			noops[j] = &noop{passes: 2}
		}
		d, err := l.timed(cid, "ladder."+class+".traverse", func() error {
			_, _, _, err := stream.MedianBroadcastContext(l.ctx, st, noops)
			return err
		})
		if err != nil {
			return err
		}
		trav = append(trav, d)
		copies, err := copiesFor(seed)
		if err != nil {
			return err
		}
		d, err = l.timed(cid, "ladder."+class+".kernel", func() error {
			_, _, ds, err := stream.MedianBroadcastContext(l.ctx, st, copies)
			reads = ds.StreamItemsRead
			return err
		})
		if err != nil {
			return err
		}
		kern = append(kern, d)
		d, err = l.timed(cid, "ladder."+class+".library", func() error {
			_, err := library(l.ctx, st, o)
			return err
		})
		if err != nil {
			return err
		}
		lib = append(lib, d)
		d, err = l.timed(cid, "ladder."+class+".handler", func() error { return l.serveHTTP(o) })
		if err != nil {
			return err
		}
		hdl = append(hdl, d)
		if copies, err = copiesFor(seed); err != nil {
			return err
		}
		d, _ = l.timed(cid, "ladder."+class+".sequential", func() error {
			stream.Run(st, stream.NewMedian(copies...))
			return nil
		})
		seq = append(seq, d)
		if copies, err = copiesFor(seed); err != nil {
			return err
		}
		d, err = l.timed(cid, "ladder."+class+".replay", func() error {
			_, _, err := stream.MedianReplayContext(l.ctx, st, copies)
			return err
		})
		if err != nil {
			return err
		}
		rep = append(rep, d)
	}
	t, k, lb, h := median(trav), median(kern), median(lib), median(hdl)
	l.m["stream.driver.sequential_ms"] = ms(median(seq))
	l.m["stream.driver.broadcast_ms"] = ms(k)
	l.m["stream.driver.replay_ms"] = ms(median(rep))
	l.m["stream.driver.broadcast_reads"] = float64(reads)
	l.m["adjstream.estimate_ms."+class] = ms(lb)
	l.share(class, "traverse", t, pr.e2e)
	l.share(class, "kernel", k-t, pr.e2e)
	l.share(class, "library", lb-k, pr.e2e)
	l.share(class, "handler", h-lb, pr.e2e)
	l.share(class, "http", pr.overhead-(h-lb), pr.e2e)
	l.share(class, "unaccounted", pr.e2e-lb-pr.overhead, pr.e2e)
	return nil
}

// classArb measures arb-c4 (near-optimal arbitrary-order 4-cycles) and the
// three-pass arbitrary-order estimator on the same edge order.
func (l *ladder) classArb(probe []op, pr probeResult) error {
	const class = "arb-c4"
	cid, end := l.tr.begin(l.parent, "ladder."+class)
	defer end()
	st, err := l.stream(probe[0].specs[0].Graph)
	if err != nil {
		return err
	}
	as := adjstream.NewArbitraryStream(st)
	var kern, lib, hdl, three []time.Duration
	var space, space3 int64
	var passes, passes3 int
	for i := 0; i < l.reps(len(probe)); i++ {
		o := &probe[i]
		seed := o.specs[0].EffectiveSeed()
		e, err := arbitrary.NewNearOptFourCycle(arbProb, 0, seed)
		if err != nil {
			return err
		}
		d, err := l.timed(cid, "ladder."+class+".kernel", func() error { return arbitrary.RunContext(l.ctx, as, e) })
		if err != nil {
			return err
		}
		kern = append(kern, d)
		space, passes = e.SpaceWords(), e.Passes()
		d, err = l.timed(cid, "ladder."+class+".library", func() error {
			_, err := library(l.ctx, st, o)
			return err
		})
		if err != nil {
			return err
		}
		lib = append(lib, d)
		d, err = l.timed(cid, "ladder."+class+".handler", func() error { return l.serveHTTP(o) })
		if err != nil {
			return err
		}
		hdl = append(hdl, d)
		e3, err := arbitrary.NewThreePassFourCycle(arbProb, seed)
		if err != nil {
			return err
		}
		d, err = l.timed(cid, "ladder."+class+".threepass", func() error { return arbitrary.RunContext(l.ctx, as, e3) })
		if err != nil {
			return err
		}
		three = append(three, d)
		space3, passes3 = e3.SpaceWords(), e3.Passes()
	}
	seed := probe[0].specs[0].EffectiveSeed()
	e, err := arbitrary.NewNearOptFourCycle(arbProb, 0, seed)
	if err != nil {
		return err
	}
	allocs, err := allocsOf(func() error { return arbitrary.RunContext(l.ctx, as, e) })
	if err != nil {
		return err
	}
	e3, err := arbitrary.NewThreePassFourCycle(arbProb, seed)
	if err != nil {
		return err
	}
	allocs3, err := allocsOf(func() error { return arbitrary.RunContext(l.ctx, as, e3) })
	if err != nil {
		return err
	}
	m := float64(as.M())
	l.m["arbitrary.nearopt.ns_per_item"] = float64(median(kern)) / (float64(passes) * m)
	l.m["arbitrary.nearopt.allocs_per_item"] = float64(allocs) / (float64(passes) * m)
	l.m["arbitrary.nearopt.space_words"] = float64(space)
	l.m["arbitrary.threepass.ns_per_item"] = float64(median(three)) / (float64(passes3) * m)
	l.m["arbitrary.threepass.allocs_per_item"] = float64(allocs3) / (float64(passes3) * m)
	l.m["arbitrary.threepass.space_words"] = float64(space3)
	k, lb, h := median(kern), median(lib), median(hdl)
	l.m["adjstream.estimate_ms."+class] = ms(lb)
	l.share(class, "kernel", k, pr.e2e)
	l.share(class, "library", lb-k, pr.e2e)
	l.share(class, "handler", h-lb, pr.e2e)
	l.share(class, "http", pr.overhead-(h-lb), pr.e2e)
	l.share(class, "unaccounted", pr.e2e-lb-pr.overhead, pr.e2e)
	return nil
}

// classBatch measures batch-fam: one 5-copy shard run, then a prefix merge
// per family member, as the batch endpoint does.
func (l *ladder) classBatch(probe []op, pr probeResult) error {
	const class = "batch-fam"
	cid, end := l.tr.begin(l.parent, "ladder."+class)
	defer end()
	st, err := l.stream(probe[0].specs[0].Graph)
	if err != nil {
		return err
	}
	var shard, merge, hdl []time.Duration
	var bytesTotal int
	for i := 0; i < l.reps(len(probe)); i++ {
		o := &probe[i]
		opts := optionsOf(o.specs[0])
		kmax := 0
		for _, it := range o.specs {
			kmax = max(kmax, it.Copies)
		}
		opts.Copies = kmax
		var snaps []adjstream.CopySnapshot
		d, err := l.timed(cid, "ladder."+class+".shard", func() error {
			var err error
			snaps, err = adjstream.EstimateShardContext(l.ctx, st, opts, 0, kmax)
			return err
		})
		if err != nil {
			return err
		}
		shard = append(shard, d)
		bytesTotal = 0
		for _, s := range snaps {
			bytesTotal += len(s)
		}
		d, err = l.timed(cid, "ladder."+class+".merge", func() error {
			for _, it := range o.specs {
				if _, err := adjstream.MergeSnapshots(snaps[:it.Copies]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		merge = append(merge, d)
		d, err = l.timed(cid, "ladder."+class+".handler", func() error { return l.serveHTTP(o) })
		if err != nil {
			return err
		}
		hdl = append(hdl, d)
	}
	s, mg, h := median(shard), median(merge), median(hdl)
	l.m["adjstream.shard_ms"] = ms(s)
	l.m["adjstream.merge_us"] = us(mg)
	l.m["adjstream.snapshot_bytes"] = float64(bytesTotal)
	l.m["adjstream.estimate_ms."+class] = ms(s + mg)
	l.share(class, "shard", s, pr.e2e)
	l.share(class, "merge", mg, pr.e2e)
	l.share(class, "handler", h-s-mg, pr.e2e)
	l.share(class, "http", pr.overhead-(h-s-mg), pr.e2e)
	l.share(class, "unaccounted", pr.e2e-s-mg-pr.overhead, pr.e2e)
	return nil
}

// classHit measures a cache hit: request decode, response encode, and the
// whole in-process handler; http is the rest of the client latency.
func (l *ladder) classHit(probe []op, served []byte, pr probeResult) error {
	const class = "hit"
	cid, end := l.tr.begin(l.parent, "ladder."+class)
	defer end()
	o := &probe[0]
	if err := l.serveHTTP(o); err != nil { // prime the in-process cache
		return err
	}
	var resp serve.EstimateResponse
	if err := json.Unmarshal(served, &resp); err != nil {
		return fmt.Errorf("ladder: served hit: %w", err)
	}
	var dec, enc, hdl []time.Duration
	var buf bytes.Buffer
	for i := 0; i < l.reps(len(probe)); i++ {
		d, err := l.timed(cid, "ladder."+class+".decode", func() error {
			var r serve.EstimateRequest
			jd := json.NewDecoder(bytes.NewReader(o.body))
			jd.DisallowUnknownFields()
			return jd.Decode(&r)
		})
		if err != nil {
			return err
		}
		dec = append(dec, d)
		buf.Reset()
		d, err = l.timed(cid, "ladder."+class+".encode", func() error { return json.NewEncoder(&buf).Encode(resp) })
		if err != nil {
			return err
		}
		enc = append(enc, d)
		d, err = l.timed(cid, "ladder."+class+".handler", func() error { return l.serveHTTP(o) })
		if err != nil {
			return err
		}
		hdl = append(hdl, d)
	}
	dc, ec, h := median(dec), median(enc), median(hdl)
	l.m["serve.decode_us"] = us(dc)
	l.m["serve.encode_us"] = us(ec)
	l.m["serve.handler_hit_us"] = us(h)
	l.share(class, "decode", dc, pr.e2e)
	l.share(class, "encode", ec, pr.e2e)
	l.share(class, "handler", h-dc-ec, pr.e2e)
	l.share(class, "http", pr.e2e-h, pr.e2e)
	return nil
}

// setupRungs times the set-up and ingestion layers: edge-list parse,
// sorted-stream build, whole-catalog load, a version merge through
// graph.Delta, and MutableDataset.ApplyBatch over the edge log.
func (l *ladder) setupRungs() error {
	pid, end := l.tr.begin(l.parent, "ladder.setup")
	defer end()
	n := l.reps(5)
	erFile := filepath.Join(l.in.graphDir, gER+".edges")
	var parse, sorted, load, delta []time.Duration
	g := l.in.graphs[gER]
	base := l.in.graphs[gLive]
	for i := 0; i < n; i++ {
		d, err := l.timed(pid, "ladder.setup.read_edgelist", func() error {
			_, err := adjstream.ReadEdgeListFile(erFile)
			return err
		})
		if err != nil {
			return err
		}
		parse = append(parse, d)
		d, _ = l.timed(pid, "ladder.setup.sorted_build", func() error {
			adjstream.SortedStream(g)
			return nil
		})
		sorted = append(sorted, d)
		d, err = l.timed(pid, "ladder.setup.catalog_load", func() error {
			_, err := serve.NewCatalog().LoadDir(l.in.graphDir)
			return err
		})
		if err != nil {
			return err
		}
		load = append(load, d)
		// One write-phase version merge: the log's first batch staged
		// into a delta over the base graph, then applied.
		d, err = l.timed(pid, "ladder.setup.delta_apply", func() error {
			dl := adjstream.NewDelta(base)
			for _, b := range l.in.log[:1] {
				for _, e := range b.add {
					if err := dl.Add(adjstream.V(e[0]), adjstream.V(e[1])); err != nil {
						return err
					}
				}
				for _, e := range b.remove {
					if err := dl.Remove(adjstream.V(e[0]), adjstream.V(e[1])); err != nil {
						return err
					}
				}
			}
			dl.Apply()
			return nil
		})
		if err != nil {
			return err
		}
		delta = append(delta, d)
	}
	l.m["graph.read_edgelist_ms"] = ms(median(parse))
	l.m["stream.sorted_build_ms"] = ms(median(sorted))
	l.m["serve.catalog.load_s"] = median(load).Seconds()
	l.m["graph.delta_apply_ms"] = ms(median(delta))

	// ApplyBatch through the log on a fresh catalog; every batch is
	// flushed here, so each carries the merge write_p95_ms sees.
	cat := serve.NewCatalog()
	if _, err := cat.LoadDir(l.in.graphDir); err != nil {
		return err
	}
	md, ok := cat.GetMutable(gLive)
	if !ok {
		return fmt.Errorf("ladder: no live graph")
	}
	var apply []time.Duration
	for i := 0; i < len(l.in.log) && len(apply) < n*2; i++ {
		b := l.in.log[i]
		req := serve.EdgeBatchRequest{BatchID: fmt.Sprint(i), Add: b.add, Remove: b.remove, Flush: true}
		d, err := l.timed(pid, "ladder.setup.ingest_apply", func() error {
			_, _, err := md.ApplyBatch(req)
			return err
		})
		if err != nil {
			return err
		}
		apply = append(apply, d)
	}
	l.m["serve.ingest.apply_ms"] = ms(median(apply))
	return nil
}

// clusterRungs times internal/cluster against the running server as its
// one replica: Scheduler.Run of a tri-k9 spec, and one direct /v1/shard
// call for a third of its copies.
func clusterRungs(ctx context.Context, l *ladder, srv *server, probe []op) error {
	pid, end := l.tr.begin(l.parent, "ladder.cluster")
	defer end()
	client := newClient()
	defer client.CloseIdleConnections()
	sched, err := cluster.New(cluster.Config{Replicas: []string{srv.url}, ProbeInterval: -1, Client: client})
	if err != nil {
		return err
	}
	defer sched.Close()
	var run, rtt []time.Duration
	for i := 0; i < l.reps(len(probe)); i++ {
		req := probe[i].specs[0]
		ds, ok := l.cat.Get(req.Graph)
		if !ok {
			return fmt.Errorf("ladder: no graph %q", req.Graph)
		}
		d, err := l.timed(pid, "ladder.cluster.run", func() error {
			_, err := sched.Run(ctx, "estimate", req, ds)
			return err
		})
		if err != nil {
			return fmt.Errorf("cluster run: %w", err)
		}
		run = append(run, d)
		body, err := json.Marshal(serve.ShardRequest{EstimateRequest: req, CopyLo: 0, CopyHi: req.Copies / 3,
			GraphVersion: ds.Version(), GraphFingerprint: fmt.Sprintf("%016x", ds.Fingerprint())})
		if err != nil {
			return err
		}
		d, err = l.timed(pid, "ladder.cluster.shard_rtt", func() error {
			resp, err := client.Post(srv.url+"/v1/shard", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("shard status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
			}
			return nil
		})
		if err != nil {
			return err
		}
		rtt = append(rtt, d)
	}
	l.m["cluster.run_ms"] = ms(median(run))
	l.m["cluster.shard_rtt_ms"] = ms(median(rtt))
	return nil
}

// writeSpans stores the tracer's spans next to the run's other outputs.
func writeSpans(tr *tracer, dir string, log io.Writer) error {
	path := filepath.Join(dir, "spans.jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(log, "perfbench: spans written to %s\n", path)
	return nil
}
