package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"adjstream"
	"adjstream/internal/gen"
	"adjstream/internal/serve"
)

// workload is one traffic mix. Read rates are open-loop arrivals per
// second, set to about a quarter of the workload's closed-loop capacity on
// a 2-CPU host: at half, a slow spell of the shared host pushed the queue
// past capacity and the latency quantiles with it. Edge batches are timed
// in a phase of their own (see writeShare), so a light write is never
// measured as the wait behind a cold read.
type workload struct {
	name     string
	skew     bool    // every read on pl-skew, the heavy-hub graph
	readRate float64 // open-loop reads per second
}

var workloads = map[string]workload{
	"cold-mix":  {name: "cold-mix", readRate: 12},
	"cold-skew": {name: "cold-skew", skew: true, readRate: 12},
}

// The served graphs. Every workload loads all three, so set-up and the
// ladder see the same catalog everywhere.
const (
	gER   = "er-mid"  // G(n=800, p=0.05), about 16.2k edges
	gPL   = "pl-skew" // Chung–Lu power law with heavy hubs, about 9.9k edges
	gLive = "live"    // G(1200, 0.05), about 36k edges, that edge batches mutate
)

var graphNames = []string{gER, gLive, gPL}

const (
	sampleSize = 512             // m′ of every sampled adjacency-list class
	arbProb    = 0.03            // SampleProb of the arbitrary-order 4-cycle class
	batchOps   = 64              // edge operations per write batch
	flushEvery = 8               // every flushEvery-th write batch merges a new version
	capShare   = 0.20            // share of an untraced run in the capacity phase
	writeShare = 0.10            // share in the write phase
	openShare  = 0.70            // share in the open loop
	phaseMax   = 3000            // write-phase batches per second it could ever send
	grace      = 2 * time.Second // an open loop's wait for stragglers after its window
)

// coldPattern is the fixed per-cycle class order of cold reads; a run's
// seed changes the estimator seeds, never the class mix. No record of real
// traffic exists in the repository, so the mix is an assumption: every
// request class adjserved offers appears, the cheap one-copy triangle
// estimate most often. The read quantiles follow from it: read_p50_ms
// falls among the one-copy classes (mostly tri-k1) and read_p95_ms on the
// slowest twelfth, tri-k9.
var coldPattern = []string{
	"tri-k1", "c4-k1", "dist3", "tri-k1", "batch-fam", "tri3-k1",
	"tri-k1", "arb-c4", "c4-k1", "tri-k9", "dist3", "tri-k1",
}

// coldClasses lists every cold request class once.
var coldClasses = []string{"tri-k9", "tri-k1", "tri3-k1", "c4-k1", "arb-c4", "dist3", "batch-fam"}

// op is one request the load generator sends.
type op struct {
	id    int
	class string
	kind  string // estimate, distinguish, batch or write
	path  string
	body  []byte
	specs []serve.EstimateRequest // estimate/distinguish: one; batch: its items
	due   time.Duration           // open loop: send time after the phase start
	write int                     // write: index into the edge log, else -1
}

// writeBatch is one logged edge batch of the live graph.
type writeBatch struct {
	add, remove [][2]int64
}

// versionAfter returns the live graph's version once log batch i has been
// applied, and whether batch i merged it. Like an ingesting client, the
// benchmark stages most batches and asks for a merge with every
// flushEvery-th: write_p50_ms is then a staged batch and write_p95_ms one
// that merges, each a kind of request rather than a rare event.
func versionAfter(i int) (version uint64, merged bool) {
	n := i + 1
	return uint64(1 + n/flushEvery), n%flushEvery == 0
}

// inputs is everything one run sends: graph files and request lists.
type inputs struct {
	w        workload
	graphDir string
	graphs   map[string]*adjstream.Graph // as the servers parse them
	warm     []op
	capacity []op   // closed-loop list (long enough for the phase)
	writes   []op   // untraced write phase, sent one at a time
	open     [][]op // open-loop read chunks (untraced: one per round; traced: two phases)
	openDur  []time.Duration
	probe    map[string][]op // traced: sequential per-class probes
	log      []writeBatch
	hash     string
}

// mix is a splitmix64 step over a and b: distinct (a, b) give distinct,
// well-spread seeds.
func mix(a, b uint64) uint64 {
	z := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Phase tags keep the seeds of different phases apart.
const (
	tagGraph = iota + 1
	tagWarm
	tagCapacity
	tagOpen
	tagProbe
	tagLog
)

func seedFor(run uint64, tag, i int) uint64 { return mix(mix(run, uint64(tag)), uint64(i)) }

// generate writes the run's graph files under dir and builds every request
// list. The same (workload, seed, seconds, trace) always yields
// byte-identical files and bodies; hash digests them.
func generate(w workload, seed uint64, seconds float64, trace bool, dir string) (*inputs, error) {
	in := &inputs{w: w, graphDir: filepath.Join(dir, "graphs"), graphs: map[string]*adjstream.Graph{}}
	if err := os.MkdirAll(in.graphDir, 0o755); err != nil {
		return nil, err
	}
	h := sha256.New()
	for i, name := range graphNames {
		var g *adjstream.Graph
		var err error
		gs := seedFor(seed, tagGraph, i)
		switch name {
		case gPL:
			g, err = gen.ChungLu(6000, 2.2, 1000, gs)
		case gLive:
			// Large enough that a version merge takes milliseconds,
			// not the sub-millisecond jitter of an idle host.
			g, err = gen.ErdosRenyi(1200, 0.05, gs)
		default:
			g, err = gen.ErdosRenyi(800, 0.05, gs)
		}
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := adjstream.WriteEdgeList(&buf, g); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(in.graphDir, name+".edges"), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		h.Write(buf.Bytes())
		// The servers see the file, not the generator's graph (isolated
		// vertices do not survive an edge list), so parse it back.
		if in.graphs[name], err = adjstream.ReadEdgeList(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
	}

	var openSecs []float64
	if trace {
		openSecs = []float64{seconds / 2, seconds / 2}
	} else {
		openSecs = []float64{seconds * openShare}
	}
	// The ladder replays at least 64 batches of the log in-process.
	maxPhase := int(seconds * writeShare * phaseMax)
	in.log = editLog(in.graphs[gLive], seed, max(maxPhase, 64))

	in.warm = warmup(seed)
	if !trace {
		// Enough requests for any closed-loop pace a 2-CPU host reaches
		// (about 40 cold reads per second).
		in.capacity = coldReads(w, seed, tagCapacity, int(200*seconds*capShare)+64)
		for i := 0; i < maxPhase; i++ {
			in.writes = append(in.writes, writeOp(in.log, i, seed))
		}
	}
	// An untraced run sends its open loop in rounds; each chunk's due
	// times count from the chunk's start.
	chunks := rounds
	if trace {
		chunks = 1
	}
	for p, secs := range openSecs {
		ops := coldReads(w, seed, tagOpen+10*p, int(secs*w.readRate))
		for k := 0; k < chunks; k++ {
			chunk := ops[k*len(ops)/chunks : (k+1)*len(ops)/chunks]
			for i := range chunk {
				chunk[i].id = k*len(ops)/chunks + i
				chunk[i].due = time.Duration((float64(i) + 0.5) / w.readRate * float64(time.Second))
			}
			in.open = append(in.open, chunk)
			in.openDur = append(in.openDur, time.Duration(secs/float64(chunks)*float64(time.Second)))
		}
	}
	if trace {
		in.probe = probes(seed)
	}

	for _, list := range [][]op{in.warm, in.capacity, in.writes} {
		for i := range list {
			list[i].id = i
		}
		hashOps(h, list)
	}
	for _, list := range in.open {
		hashOps(h, list)
	}
	for _, c := range append(append([]string{}, coldClasses...), "hit") {
		hashOps(h, in.probe[c])
	}
	in.hash = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

func hashOps(h io.Writer, ops []op) {
	for _, o := range ops {
		fmt.Fprintf(h, "%s %d %s\n", o.path, o.due, o.body)
	}
}

// warmup returns the set-up warm-up requests: one of each cold class per
// graph it runs on.
func warmup(seed uint64) []op {
	var out []op
	for i, c := range coldClasses {
		for gi, g := range []string{gER, gPL} {
			if c == "arb-c4" && g == gER {
				continue
			}
			out = append(out, classOp(c, g, seedFor(seed, tagWarm, 2*i+gi)))
		}
	}
	return out
}

// coldReads returns the first n cold reads of a phase: the class comes
// from the fixed pattern, the seed is fresh. On cold-skew every read runs
// on pl-skew. On cold-mix the graph alternates per cycle, except that
// tri-k1 and tri-k9 run on er-mid only and arb-c4 on pl-skew only: one
// graph per class keeps each class's latency in one band, a choice made
// for run-to-run steadiness, not taken from traffic.
func coldReads(w workload, seed uint64, tag, n int) []op {
	out := make([]op, n)
	for i := range out {
		slot := i % len(coldPattern)
		class := coldPattern[slot]
		g := []string{gER, gPL}[(i/len(coldPattern)+slot)%2]
		switch {
		case w.skew || class == "arb-c4":
			g = gPL
		case class == "tri-k1" || class == "tri-k9":
			g = gER
		}
		out[i] = classOp(class, g, seedFor(seed, tag, i))
	}
	return out
}

// probes returns, per class, the sequential requests the traced run sends
// to measure each class's unloaded end-to-end median: fresh cold requests
// on er-mid (arb-c4 on pl-skew), and for "hit" one spec repeated.
func probes(seed uint64) map[string][]op {
	out := map[string][]op{}
	for ci, c := range coldClasses {
		g := gER
		if c == "arb-c4" {
			g = gPL
		}
		for i := 0; i < probeReps(c); i++ {
			out[c] = append(out[c], classOp(c, g, seedFor(seed, tagProbe, ci*1000+i)))
		}
	}
	hit := classOp("tri-k1", gER, seedFor(seed, tagProbe, 99999))
	hit.class = "hit"
	for i := 0; i < 201; i++ {
		out["hit"] = append(out["hit"], hit)
	}
	return out
}

func probeReps(class string) int {
	if class == "tri-k9" {
		return 5
	}
	return 9
}

// classOp builds one request of a class.
func classOp(class, graph string, seed uint64) op {
	est := func(algo string) serve.EstimateRequest {
		s := seed
		return serve.EstimateRequest{Graph: graph, Algorithm: algo, SampleSize: sampleSize, Seed: &s}
	}
	var r serve.EstimateRequest
	kind := "estimate"
	switch class {
	case "tri-k9":
		r = est(string(adjstream.AlgoTwoPassTriangle))
		r.Copies, r.Parallel = 9, true
	case "tri-k1":
		r = est(string(adjstream.AlgoTwoPassTriangle))
	case "tri3-k1":
		r = est(string(adjstream.AlgoThreePassTriangle))
	case "c4-k1":
		r = est(string(adjstream.AlgoTwoPassFourCycle))
	case "arb-c4":
		r = est(string(adjstream.AlgoArbNearOptFourCycle))
		r.Model, r.SampleSize, r.SampleProb = string(adjstream.ModelArbitrary), 0, arbProb
	case "dist3":
		r = est("")
		r.CycleLen = 3
		kind = "distinguish"
	case "batch-fam":
		// A copy-count family: the server runs one 5-copy shard run and
		// merges each member from its prefix.
		var items []serve.EstimateRequest
		for _, k := range []int{2, 3, 5} {
			it := est(string(adjstream.AlgoTwoPassTriangle))
			it.Copies, it.Parallel = k, true
			items = append(items, it)
		}
		return batchOp(class, items)
	default:
		panic("perfbench: unknown class " + class)
	}
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // a plain struct always marshals
	}
	return op{class: class, kind: kind, path: "/v1/" + kind, body: body,
		specs: []serve.EstimateRequest{r}, write: -1}
}

func batchOp(class string, items []serve.EstimateRequest) op {
	body, err := json.Marshal(serve.BatchRequest{Requests: items})
	if err != nil {
		panic(err)
	}
	return op{class: class, kind: "batch", path: "/v1/estimate/batch", body: body,
		specs: items, write: -1}
}

// writeOp builds the request for log entry i.
func writeOp(log []writeBatch, i int, seed uint64) op {
	b := log[i]
	body, err := json.Marshal(serve.EdgeBatchRequest{
		BatchID: fmt.Sprintf("%016x-%d", seed, i),
		Add:     b.add, Remove: b.remove, Flush: (i+1)%flushEvery == 0,
	})
	if err != nil {
		panic(err)
	}
	return op{class: "write", kind: "write", path: "/v1/graphs/" + gLive + "/edges",
		body: body, write: i}
}

// editLog generates n edge batches against base. Each batch adds new edges
// among base's vertices and removes edges an earlier batch added, so the
// vertex set never changes and every operation is valid in the order a
// server applies a batch (all adds, then all removes). From the second
// batch on, adds and removes are equal in number: the edge count, and with
// it the cost of a merge, stays the same however many batches a run sends.
func editLog(base *adjstream.Graph, seed uint64, n int) []writeBatch {
	rng := rand.New(rand.NewSource(int64(seedFor(seed, tagLog, 0) >> 1)))
	vs := base.Vertices()
	present := make(map[[2]int64]bool, base.M())
	for _, e := range base.Edges() {
		present[edgeKey(int64(e.U), int64(e.V))] = true
	}
	var added [][2]int64 // edges added by the log and still present
	log := make([]writeBatch, n)
	for i := range log {
		var b writeBatch
		nrem := min(batchOps/2, len(added))
		for len(b.add) < batchOps-nrem {
			u, v := int64(vs[rng.Intn(len(vs))]), int64(vs[rng.Intn(len(vs))])
			if u == v {
				continue
			}
			e := edgeKey(u, v)
			if present[e] {
				continue
			}
			present[e] = true
			b.add = append(b.add, e)
		}
		for k := 0; k < nrem; k++ {
			j := rng.Intn(len(added))
			e := added[j]
			added[j] = added[len(added)-1]
			added = added[:len(added)-1]
			delete(present, e)
			b.remove = append(b.remove, e)
		}
		// Edges added in this batch become removable from the next one on.
		added = append(added, b.add...)
		log[i] = b
	}
	return log
}

func edgeKey(u, v int64) [2]int64 {
	if u > v {
		u, v = v, u
	}
	return [2]int64{u, v}
}
