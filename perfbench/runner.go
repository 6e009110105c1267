package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"adjstream/internal/serve"
)

// rounds is how many times an untraced run cycles through its capacity,
// open-loop and write chunks: each phase then samples the shared host
// across the whole run, not one stretch of it, and a disturbance that
// lasts a fraction of the run moves one round, not the run's figure.
// Latency quantiles use blocks of at least blockSamples samples (so a
// block's 95th percentile has ten samples beyond it), at most maxBlocks of
// them.
const (
	rounds       = 5
	blockSamples = 200
	maxBlocks    = 10
)

// settle is the pause before each write chunk, in which the server
// finishes the work the open-loop chunk left behind (garbage collection
// among it), so that no edge batch is timed against it.
const settle = 100 * time.Millisecond

// lagLimit is how late the generator may send its 95th-percentile op
// before a run is marked invalid: beyond it the generator, not the
// server, set the pace.
const lagLimit = 5 * time.Millisecond

// runner carries one run's inputs and counters.
type runner struct {
	cfg   config
	in    *inputs
	dir   string
	log   io.Writer
	tally *tally
	side  map[string]float64 // sample counts and validity, for the summary
}

// setup spawns the server and sends the warm-up requests; the returned
// duration is the set-up time a user would wait.
func (r *runner) setup(ctx context.Context, c *http.Client) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(ctx, r.cfg.bin, r.in.graphDir, r.dir)
	if err != nil {
		return nil, 0, err
	}
	samples, _ := closedLoop(ctx, c, srv.url, r.in.warm, lanes, time.Hour)
	d := time.Since(t0)
	for i := range samples {
		if s := &samples[i]; !s.ok() {
			srv.stop()
			return nil, 0, fmt.Errorf("warm-up %s: status %d err %v: %.200s", s.op.class, s.status, s.err, s.body)
		}
	}
	return srv, d, nil
}

// untraced is the end-to-end run: repeated set-ups, rounds of a
// closed-loop capacity chunk, an open-loop chunk and a write chunk, then
// the answer checks.
func (r *runner) untraced(ctx context.Context) (map[string]float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	reps := r.cfg.reps(5)
	var setups []float64
	var srv *server
	defer func() { srv.stop() }()
	for i := 0; i < reps; i++ {
		srv.stop()
		c.CloseIdleConnections()
		var d time.Duration
		var err error
		if srv, d, err = r.setup(ctx, c); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	// capacity_rps is the median chunk rate and cpu_ms_per_op the median
	// over open-loop chunks of server CPU time per answered read. Edge
	// batches go one at a time after the light open-loop chunk, not after
	// the saturating capacity chunk; every flushEvery-th merges a new
	// version of the live graph.
	capDur := time.Duration(r.cfg.seconds * capShare * float64(time.Second) / rounds)
	writeDur := time.Duration(r.cfg.seconds * writeShare * float64(time.Second) / rounds)
	var capSamples, writeSamples []sample
	var open openResult
	var capRates, cpuPerOp []float64
	for b := 0; b < rounds; b++ {
		cs, elapsed := closedLoop(ctx, c, srv.url, r.in.capacity[len(capSamples):], lanes, capDur)
		if elapsed > 0 {
			capRates = append(capRates, float64(answered(cs))/elapsed.Seconds())
		}
		capSamples = append(capSamples, cs...)

		before, err := srv.cpuTicks()
		if err != nil {
			return nil, err
		}
		o := openLoop(ctx, c, srv.url, r.in.open[b], r.in.openDur[b], nil, 0)
		after, err := srv.cpuTicks()
		if err != nil {
			return nil, err
		}
		if n := answered(o.samples); n > 0 {
			cpuPerOp = append(cpuPerOp, float64(after-before)*float64(clockTick/time.Millisecond)/float64(n))
		}
		open.samples = append(open.samples, o.samples...)
		open.lag = append(open.lag, o.lag...)

		time.Sleep(settle)
		ws, _ := closedLoop(ctx, c, srv.url, r.in.writes[len(writeSamples):], 1, writeDur)
		writeSamples = append(writeSamples, ws...)
	}
	if len(capSamples) == len(r.in.capacity) {
		return nil, fmt.Errorf("capacity phase ran out of requests after %d", len(capSamples))
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	r.tally.attempted.Add(int64(len(capSamples) + len(open.samples) + len(writeSamples)))
	or := newOracle(r.in, r.tally, r.log)
	or.checkSamples(capSamples, r.selectFull(capSamples, tagCapacity))
	or.checkSamples(open.samples, r.selectFull(open.samples, tagOpen))
	or.checkSamples(writeSamples, r.selectFull(writeSamples, 0))

	reads, _ := latencies(open.samples)
	_, writes := latencies(writeSamples)
	isRead := func(s *sample) bool { return s.op.kind != "write" }
	isWrite := func(s *sample) bool { return s.op.kind == "write" }
	m := map[string]float64{
		"setup_s":       quantile(setups, 0.5),
		"read_p50_ms":   blockQuantile(open.samples, isRead, 0.5),
		"read_p95_ms":   blockQuantile(open.samples, isRead, 0.95),
		"write_p50_ms":  blockQuantile(writeSamples, isWrite, 0.5),
		"write_p95_ms":  blockQuantile(writeSamples, isWrite, 0.95),
		"capacity_rps":  quantile(capRates, 0.5),
		"cpu_ms_per_op": quantile(cpuPerOp, 0.5),
		"rss_peak_mb":   rss,
	}
	r.side = map[string]float64{
		"samples.read": float64(len(reads)), "samples.write": float64(len(writes)),
		"samples.capacity": float64(answered(capSamples)),
	}
	r.noteGenerator(open)
	return m, nil
}

// noteGenerator records how late the generator ran and marks the run
// invalid when it fell behind its own schedule.
func (r *runner) noteGenerator(open openResult) {
	p := quantile(lagsMS(open.lag), 0.95)
	r.side["lag_p95"] = p
	if p > float64(lagLimit)/float64(time.Millisecond) {
		r.side["loadgen.behind"] = 1
		fmt.Fprintf(r.log, "perfbench: INVALID RUN: generator lag p95 %.2f ms exceeds %v\n", p, lagLimit)
	}
}

// traced is the per-layer run: one set-up, an untraced and a traced
// open-loop phase (their read medians give the tracing overhead), the
// per-class probes, the cluster rungs against the live servers, then the
// in-process ladder.
func (r *runner) traced(ctx context.Context) (map[string]float64, error) {
	tr := newTracer()
	root, endRoot := tr.begin(0, "run")
	c := newClient()
	defer c.CloseIdleConnections()
	_, endSetup := tr.begin(root, "setup")
	srv, _, err := r.setup(ctx, c)
	endSetup()
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	openA := openLoop(ctx, c, srv.url, r.in.open[0], r.in.openDur[0], nil, 0)
	pid, endB := tr.begin(root, "phase.open")
	mon := startHealthMonitor(srv)
	openB := openLoop(ctx, c, srv.url, r.in.open[1], r.in.openDur[1], tr, pid)
	waiting, inflight := mon.finish()
	endB()

	probeID, endProbe := tr.begin(root, "phase.probe")
	probes := map[string][]sample{}
	for _, class := range append(append([]string{}, coldClasses...), "hit") {
		ops := r.in.probe[class]
		ops = ops[:r.cfg.reps(len(ops))]
		// One lane, one request at a time: unloaded per-class latency.
		t0 := time.Now()
		out := make([]sample, len(ops))
		for i := range ops {
			s := &out[i]
			send(ctx, c, srv.url, &ops[i], s, t0)
			s.due = s.sent
			tr.request(probeID, &ops[i], s, t0)
		}
		probes[class] = out
	}
	endProbe()

	m := map[string]float64{}
	lad, err := newLadder(ctx, r.in, tr, root, r.cfg, m)
	if err != nil {
		return nil, err
	}
	if err := clusterRungs(ctx, lad, srv, r.in.probe["tri-k9"]); err != nil {
		return nil, err
	}
	srv.stop()

	r.tally.attempted.Add(int64(len(openA.samples) + len(openB.samples)))
	or := newOracle(r.in, r.tally, r.log)
	or.checkSamples(openA.samples, r.selectFull(openA.samples, tagOpen))
	or.checkSamples(openB.samples, r.selectFull(openB.samples, tagOpen+10))
	for _, class := range append(append([]string{}, coldClasses...), "hit") {
		ps := probes[class]
		r.tally.attempted.Add(int64(len(ps)))
		or.checkSamples(ps, func(*sample) bool { return true })
	}
	if r.tally.failed.Load() > 0 {
		return nil, fmt.Errorf("%d operations failed; not measuring the ladder", r.tally.failed.Load())
	}

	pr := map[string]probeResult{}
	for class, ps := range probes {
		res, err := probeStats(ps)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", class, err)
		}
		pr[class] = res
	}
	for _, class := range []string{"tri-k1", "tri3-k1", "c4-k1", "dist3"} {
		if err := lad.classK1(class, r.in.probe[class], pr[class]); err != nil {
			return nil, err
		}
	}
	lad.spaceRatios()
	if err := lad.classK9(r.in.probe["tri-k9"], pr["tri-k9"]); err != nil {
		return nil, err
	}
	if err := lad.classArb(r.in.probe["arb-c4"], pr["arb-c4"]); err != nil {
		return nil, err
	}
	if err := lad.classBatch(r.in.probe["batch-fam"], pr["batch-fam"]); err != nil {
		return nil, err
	}
	if err := lad.classHit(r.in.probe["hit"], probes["hit"][0].body, pr["hit"]); err != nil {
		return nil, err
	}
	if err := lad.setupRungs(); err != nil {
		return nil, err
	}
	endRoot()

	readsA, _ := latencies(openA.samples)
	readsB, _ := latencies(openB.samples)
	p50A := quantile(readsA, 0.5)
	m["trace.overhead_pct"] = 100 * (quantile(readsB, 0.5) - p50A) / p50A
	over := overheads(openB.samples, probes)
	m["serve.overhead_p50_ms"] = quantile(over, 0.5)
	m["serve.overhead_p95_ms"] = quantile(over, 0.95)
	hits, coalesced, total := cacheOutcomes(openB.samples)
	m["serve.cache.hit_ratio"] = float64(hits) / float64(max(total, 1))
	m["serve.cache.coalesced"] = float64(coalesced)
	m["serve.pool.waiting_mean"] = waiting
	m["serve.pool.inflight_mean"] = inflight
	m["loadgen.lag_p95_ms"] = quantile(lagsMS(openB.lag), 0.95)
	m["loadgen.backlog_end"] = float64(openB.backlogEnd)
	r.side = map[string]float64{"samples.read": float64(len(readsB))}
	r.noteGenerator(openB)
	if err := writeSpans(tr, r.dir, r.log); err != nil {
		return nil, err
	}
	return m, nil
}

// selectFull picks the answers recomputed with the library (for edge
// batches: whose version fingerprint is rebuilt from the log): the first
// of every class in the phase, and a seeded eighth of the rest. Edge
// batches are picked by the version they report, so one rebuild checks
// every batch of a picked version. Repeated specs are recomputed once per
// graph version however often they occur.
func (r *runner) selectFull(samples []sample, tag int) func(*sample) bool {
	seen := map[string]bool{}
	full := map[*sample]bool{}
	for i := range samples {
		s := &samples[i]
		if s.op == nil {
			continue
		}
		key := s.op.id
		if s.op.write >= 0 {
			v, _ := versionAfter(s.op.write)
			key = int(v)
		}
		if !seen[s.op.class] || seedFor(r.cfg.seed, tag+100, key)%8 == 0 {
			full[s] = true
		}
		seen[s.op.class] = true
	}
	return func(s *sample) bool { return full[s] }
}

// latencies returns the answered reads' and writes' latencies in ms.
func latencies(samples []sample) (reads, writes []float64) {
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			continue
		}
		v := float64(s.latency()) / float64(time.Millisecond)
		if s.op.kind == "write" {
			writes = append(writes, v)
		} else {
			reads = append(reads, v)
		}
	}
	return reads, writes
}

func lagsMS(lag []time.Duration) []float64 {
	out := make([]float64, len(lag))
	for i, d := range lag {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// elapsedOf returns the server-side run time an answer reports: elapsed_ms
// of an estimate, the largest item elapsed_ms of a batch.
func elapsedOf(s *sample) (float64, error) {
	if s.op.kind == "batch" {
		var br serve.BatchResponse
		if err := json.Unmarshal(s.body, &br); err != nil {
			return 0, err
		}
		e := 0.0
		for _, it := range br.Results {
			if it.Result != nil {
				e = max(e, it.Result.ElapsedMS)
			}
		}
		return e, nil
	}
	var resp serve.EstimateResponse
	err := json.Unmarshal(s.body, &resp)
	return resp.ElapsedMS, err
}

// probeStats returns a probe's median latency and median serve overhead
// (latency minus the server's reported run time).
func probeStats(ps []sample) (probeResult, error) {
	var lat, over []float64
	for i := range ps {
		s := &ps[i]
		l := float64(s.latency()) / float64(time.Millisecond)
		lat = append(lat, l)
		e, err := elapsedOf(s)
		if err != nil {
			return probeResult{}, err
		}
		over = append(over, l-e)
	}
	if len(lat) == 0 {
		return probeResult{}, fmt.Errorf("no samples")
	}
	toDur := func(msv float64) time.Duration { return time.Duration(msv * float64(time.Millisecond)) }
	return probeResult{e2e: toDur(quantile(lat, 0.5)), overhead: toDur(quantile(over, 0.5))}, nil
}

// overheads returns latency minus elapsed_ms, in ms, for every answered
// estimate or distinguish that ran fresh (X-Cache: miss), in the traced
// phase and the cold probes.
func overheads(phase []sample, probes map[string][]sample) []float64 {
	var out []float64
	add := func(s *sample) {
		if !s.ok() || s.cache != string(serve.CacheMiss) || s.op.kind == "batch" {
			return
		}
		e, err := elapsedOf(s)
		if err != nil {
			return
		}
		out = append(out, float64(s.latency())/float64(time.Millisecond)-e)
	}
	for i := range phase {
		add(&phase[i])
	}
	for _, ps := range probes {
		for i := range ps {
			add(&ps[i])
		}
	}
	return out
}

// cacheOutcomes counts X-Cache outcomes over answered estimate and
// distinguish reads.
func cacheOutcomes(samples []sample) (hits, coalesced, total int) {
	for i := range samples {
		s := &samples[i]
		if !s.ok() || s.cache == "" {
			continue
		}
		total++
		switch serve.CacheOutcome(s.cache) {
		case serve.CacheHit:
			hits++
		case serve.CacheCoalesced:
			coalesced++
		}
	}
	return hits, coalesced, total
}

// blockQuantile cuts the answered samples keep selects into consecutive
// blocks of equal count (see blockSamples) and returns the median over
// blocks of each block's q-quantile latency, in ms.
func blockQuantile(samples []sample, keep func(*sample) bool, q float64) float64 {
	var picked []*sample
	for i := range samples {
		if s := &samples[i]; s.ok() && keep(s) {
			picked = append(picked, s)
		}
	}
	nb := min(max(len(picked)/blockSamples, 1), maxBlocks)
	var per []float64
	for b := 0; b < nb; b++ {
		part := picked[b*len(picked)/nb : (b+1)*len(picked)/nb]
		if len(part) == 0 {
			continue
		}
		lat := make([]float64, len(part))
		for i, s := range part {
			lat[i] = float64(s.latency()) / float64(time.Millisecond)
		}
		per = append(per, quantile(lat, q))
	}
	return quantile(per, 0.5)
}

// answered counts the samples with a 2xx answer.
func answered(samples []sample) int {
	n := 0
	for i := range samples {
		if samples[i].ok() {
			n++
		}
	}
	return n
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
