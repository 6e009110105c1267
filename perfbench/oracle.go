package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"adjstream"
	"adjstream/internal/serve"
)

// tally counts operations across a run. Every failed operation — non-2xx,
// transport error, unanswered at phase end, or an answer that differs from
// the library's — counts once in failed.
type tally struct {
	attempted  atomic.Int64
	failed     atomic.Int64
	mismatches atomic.Int64
	checked    atomic.Int64 // answers recomputed with the library
}

// correct reports a run in which every operation succeeded: no failure of
// any kind, mismatches included.
func (t *tally) correct() bool { return t.failed.Load() == 0 && t.mismatches.Load() == 0 }

// answer is the deterministic part of an estimate: every response field
// except elapsed_ms.
type answer struct {
	Estimate    uint64 // float64 bits: compared bit for bit
	SpaceWords  int64
	Passes      int
	M           int64
	Copies      int
	Found       string
	Version     uint64
	Fingerprint string
	Seed        uint64
	Graph       string
}

func answerOf(r serve.EstimateResponse) answer {
	a := answer{
		Estimate: math.Float64bits(r.Estimate), SpaceWords: r.SpaceWords, Passes: r.Passes,
		M: r.M, Copies: r.Copies, Version: r.GraphVersion, Fingerprint: r.GraphFingerprint,
		Seed: r.Seed, Graph: r.Graph,
	}
	if r.Found != nil {
		a.Found = fmt.Sprint(*r.Found)
	}
	return a
}

type verKey struct {
	graph   string
	version uint64
}

// oracle recomputes answers with the library on the graphs the servers
// hold, rebuilding each version of the live graph from the edge log.
type oracle struct {
	in       *inputs
	tally    *tally
	log      io.Writer
	datasets map[verKey]*serve.Dataset
	live     map[[2]int64]bool // live graph edges after liveN log batches
	liveN    int
	memo     map[string]answer // spec body + version -> library answer
	first    map[string]answer // spec body + version -> first served answer
	seen     map[string]bool   // request + response bytes checked -> fully
	reported int
}

func newOracle(in *inputs, t *tally, log io.Writer) *oracle {
	return &oracle{in: in, tally: t, log: log, datasets: map[verKey]*serve.Dataset{},
		memo: map[string]answer{}, first: map[string]answer{}, seen: map[string]bool{}}
}

// batchesAt returns how many log batches version v of the live graph
// contains (-1 when the log never publishes v): every flushEvery-th batch
// merges, so version v holds the first (v-1)*flushEvery.
func batchesAt(log []writeBatch, v uint64) int {
	if v < 1 || (v-1)*flushEvery > uint64(len(log)) {
		return -1
	}
	return int(v-1) * flushEvery
}

// dataset returns the serve snapshot of graph at version, built the way a
// server builds it (so its fingerprint is the one servers echo).
func (o *oracle) dataset(graph string, version uint64) (*serve.Dataset, error) {
	k := verKey{graph, version}
	if ds, ok := o.datasets[k]; ok {
		return ds, nil
	}
	g := o.in.graphs[graph]
	if g == nil {
		return nil, fmt.Errorf("unknown graph %q", graph)
	}
	if graph != gLive && version != 1 {
		return nil, fmt.Errorf("graph %q has only version 1, answer says %d", graph, version)
	}
	if graph == gLive && version > 1 {
		n := batchesAt(o.in.log, version)
		if n < 0 {
			return nil, fmt.Errorf("live version %d was never published", version)
		}
		// Versions are mostly asked for in order, so the edge set rolls
		// forward from the last one built.
		if o.live == nil || n < o.liveN {
			o.live = make(map[[2]int64]bool, g.M())
			for _, e := range g.Edges() {
				o.live[edgeKey(int64(e.U), int64(e.V))] = true
			}
			o.liveN = 0
		}
		for _, b := range o.in.log[o.liveN:n] {
			for _, e := range b.add {
				o.live[e] = true
			}
			for _, e := range b.remove {
				delete(o.live, e)
			}
		}
		o.liveN = n
		es := make([]adjstream.Edge, 0, len(o.live))
		for e := range o.live {
			es = append(es, adjstream.Edge{U: adjstream.V(e[0]), V: adjstream.V(e[1])})
		}
		var err error
		if g, err = adjstream.FromEdges(es); err != nil {
			return nil, err
		}
	}
	ds, err := serve.NewCatalog().AddAt(graph, g, version)
	if err != nil {
		return nil, err
	}
	if graph == gLive {
		// Keep one live version: a run can publish a thousand.
		for k := range o.datasets {
			if k.graph == gLive {
				delete(o.datasets, k)
			}
		}
	}
	o.datasets[k] = ds
	return ds, nil
}

func fingerprint(ds *serve.Dataset) string { return fmt.Sprintf("%016x", ds.Fingerprint()) }

// library computes the answer the library gives for one spec on one
// version: the single-node, uncached reference.
func (o *oracle) library(kind string, r serve.EstimateRequest, version uint64) (answer, error) {
	body, _ := json.Marshal(r) // a plain struct always marshals
	key := fmt.Sprintf("%s %s %d", kind, body, version)
	if a, ok := o.memo[key]; ok {
		return a, nil
	}
	ds, err := o.dataset(r.Graph, version)
	if err != nil {
		return answer{}, err
	}
	st, err := ds.Stream(r.Order, r.EffectiveSeed())
	if err != nil {
		return answer{}, err
	}
	opts := optionsOf(r)
	resp := serve.EstimateResponse{Graph: r.Graph, Seed: r.EffectiveSeed(), GraphVersion: version, GraphFingerprint: fingerprint(ds)}
	var res adjstream.Result
	if kind == "estimate" {
		res, err = adjstream.EstimateContext(context.Background(), st, opts)
	} else {
		cl := r.CycleLen
		if cl == 0 {
			cl = 3
		}
		opts.CycleLen = 0
		var found bool
		found, res, err = adjstream.DistinguishContext(context.Background(), st, cl, opts)
		resp.Found = &found
	}
	if err != nil {
		return answer{}, err
	}
	resp.Estimate, resp.SpaceWords, resp.Passes, resp.M, resp.Copies = res.Estimate, res.SpaceWords, res.Passes, res.M, res.Copies
	a := answerOf(resp)
	o.memo[key] = a
	o.tally.checked.Add(1)
	return a, nil
}

// optionsOf maps a wire spec onto library options, field for field.
func optionsOf(r serve.EstimateRequest) adjstream.Options {
	return adjstream.Options{
		Model: adjstream.Model(r.Model), Algorithm: adjstream.Algorithm(r.Algorithm),
		SampleSize: r.SampleSize, SampleProb: r.SampleProb, PairCap: r.PairCap,
		CycleLen: r.CycleLen, Copies: r.Copies, Confidence: r.Confidence,
		Parallel: r.Parallel, Driver: adjstream.Driver(r.Driver), Seed: r.EffectiveSeed(),
	}
}

// checkSamples verifies every sample: failures count, answers are checked
// for internal consistency, and those full(s) selects are recomputed with
// the library and compared bit for bit.
func (o *oracle) checkSamples(samples []sample, full func(*sample) bool) {
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			o.fail(s, fmt.Sprintf("status %d err %v body %.200s", s.status, s.err, s.body))
			continue
		}
		// A cache hit repeats its response byte for byte; one check of a
		// (request, response) pair covers every repeat of it.
		f := full(s)
		key := s.op.path + "\x00" + string(s.op.body) + "\x00" + string(s.body)
		if done, ok := o.seen[key]; ok && (done || !f) {
			continue
		}
		if err := o.checkOne(s, f); err != nil {
			o.tally.mismatches.Add(1)
			o.fail(s, err.Error())
			continue
		}
		o.seen[key] = f
	}
}

func (o *oracle) fail(s *sample, why string) {
	o.tally.failed.Add(1)
	if o.reported < 5 {
		o.reported++
		fmt.Fprintf(o.log, "perfbench: %s %s failed: %s\n", s.op.class, s.op.path, why)
	}
}

func (o *oracle) checkOne(s *sample, full bool) error {
	switch s.op.kind {
	case "write":
		return o.checkWrite(s, full)
	case "batch":
		var br serve.BatchResponse
		if err := json.Unmarshal(s.body, &br); err != nil {
			return fmt.Errorf("decode batch: %w", err)
		}
		if len(br.Results) != len(s.op.specs) {
			return fmt.Errorf("batch of %d answered %d items", len(s.op.specs), len(br.Results))
		}
		for i, it := range br.Results {
			if it.Status != 200 || it.Result == nil {
				return fmt.Errorf("batch item %d: status %d %+v", i, it.Status, it.Error)
			}
			if err := o.checkAnswer("estimate", s.op.specs[i], *it.Result, full); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	default:
		var r serve.EstimateResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		return o.checkAnswer(s.op.kind, s.op.specs[0], r, full)
	}
}

// checkAnswer checks one served answer: its echo fields always, its
// agreement with earlier answers to the same spec and version always, and
// with the library when full.
func (o *oracle) checkAnswer(kind string, spec serve.EstimateRequest, r serve.EstimateResponse, full bool) error {
	got := answerOf(r)
	if got.Graph != spec.Graph || got.Seed != spec.EffectiveSeed() {
		return fmt.Errorf("echo graph %q seed %d, want %q %d", got.Graph, got.Seed, spec.Graph, spec.EffectiveSeed())
	}
	if max(spec.Copies, 1) != got.Copies {
		return fmt.Errorf("copies %d, want %d", got.Copies, max(spec.Copies, 1))
	}
	body, _ := json.Marshal(spec)
	key := fmt.Sprintf("%s %s %d", kind, body, got.Version)
	if prev, ok := o.first[key]; ok && prev != got {
		return fmt.Errorf("answer %+v differs from an earlier answer %+v to the same spec", got, prev)
	} else if !ok {
		o.first[key] = got
	}
	if !full && spec.Graph != gLive {
		// The cheap identity check: the version-1 fingerprint.
		ds, err := o.dataset(spec.Graph, got.Version)
		if err != nil {
			return err
		}
		if got.Fingerprint != fingerprint(ds) || got.M != ds.Graph().M() {
			return fmt.Errorf("fingerprint %s m %d, want %s %d", got.Fingerprint, got.M, fingerprint(ds), ds.Graph().M())
		}
		return nil
	}
	if !full {
		return nil
	}
	want, err := o.library(kind, spec, got.Version)
	if err != nil {
		return fmt.Errorf("library: %w", err)
	}
	if want != got {
		return fmt.Errorf("served %+v, library %+v", got, want)
	}
	return nil
}

// checkWrite checks an edge batch answer against the log: the version it
// must report, whether it merged, the ops left pending and, when full, the
// version's fingerprint.
func (o *oracle) checkWrite(s *sample, full bool) error {
	var r serve.EdgeBatchResponse
	if err := json.Unmarshal(s.body, &r); err != nil {
		return fmt.Errorf("decode write: %w", err)
	}
	b := o.in.log[s.op.write]
	v, merged := versionAfter(s.op.write)
	pending := 0
	if !merged {
		pending = (s.op.write + 1) % flushEvery * batchOps
	}
	if r.Duplicate || r.Applied != len(b.add)+len(b.remove) || r.Merged != merged ||
		r.GraphVersion != v || r.PendingOps != pending {
		return fmt.Errorf("write %d answered %+v, want version %d, merged %v, %d ops pending", s.op.write, r, v, merged, pending)
	}
	if !full {
		return nil
	}
	ds, err := o.dataset(gLive, v)
	if err != nil {
		return err
	}
	if r.GraphFingerprint != fingerprint(ds) {
		return fmt.Errorf("write %d: fingerprint %s, rebuilt version %d has %s", s.op.write, r.GraphFingerprint, v, fingerprint(ds))
	}
	o.tally.checked.Add(1)
	return nil
}
