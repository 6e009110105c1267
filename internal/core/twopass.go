package core

import (
	"fmt"

	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// TriangleConfig parameterizes the two- and three-pass triangle estimators.
type TriangleConfig struct {
	// SampleSize m′ selects bottom-k edge sampling with a uniform size-m′
	// sample. Exactly one of SampleSize / SampleProb must be set.
	SampleSize int
	// SampleProb selects independent per-edge sampling with this inclusion
	// probability (decided by a seeded hash). Cleaner estimator; the space
	// is then m·p in expectation rather than exactly m′.
	SampleProb float64
	// PairCap bounds the candidate set Q of (edge, triangle) pairs kept via
	// reservoir sampling — the paper's second fix in Section 2.1. Zero
	// defaults to SampleSize (or 4096 under SampleProb).
	PairCap int
	// Seed drives all sampling decisions deterministically.
	Seed uint64
}

func (c TriangleConfig) validate() error {
	hasSize := c.SampleSize > 0
	hasProb := c.SampleProb > 0
	if hasSize == hasProb {
		return fmt.Errorf("core: exactly one of SampleSize and SampleProb must be set (size=%d prob=%v)", c.SampleSize, c.SampleProb)
	}
	if hasProb && c.SampleProb > 1 {
		return fmt.Errorf("core: SampleProb %v > 1", c.SampleProb)
	}
	if c.PairCap < 0 {
		return fmt.Errorf("core: negative PairCap %d", c.PairCap)
	}
	return nil
}

func (c TriangleConfig) pairCap() int {
	if c.PairCap > 0 {
		return c.PairCap
	}
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return 4096
}

// sampleHint is the expected number of tracked edges, used to size the
// kernel tables at construction.
func (c TriangleConfig) sampleHint() int {
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return 1024
}

// trianglePair is a collected (sampled edge, triangle) pair: a detector
// handle, the apex, and the watch-set handles of the three H_{e′,τ}
// watchers of its triangle (index 0 is the sampled edge itself, 1 is
// {u,apex}, 2 is {v,apex}; -1 while unregistered).
type trianglePair struct {
	rec  int32
	apex graph.V
	w    [3]int32
}

// TwoPassTriangle is the paper's main algorithm (Theorem 3.7): a two-pass
// (1±ε) triangle estimator using Õ(m/T^{2/3}) space. Pass one samples edges
// (hash-based, so membership is decided at an edge's first appearance) and
// starts collecting the triangles on sampled edges; pass two completes the
// collection (apexes that arrived before the edge entered the sample) and
// computes, for every collected triangle and each of its three edges, the
// count H_{e′,τ} of later-apex triangles on e′. A collected triangle is
// counted iff it was sampled at its ρ(τ) = argmin H edge, which suppresses
// the heavy-edge variance while keeping the estimator unbiased.
type TwoPassTriangle struct {
	cfg     TriangleConfig
	sampler sampling.EdgeSampler
	vx      *vertexIndex // shared by det and watch: one lookup per item
	det     *detector
	watch   *watchSet
	pairs   *sampling.Reservoir[int32] // handles into pairArena
	// pairArena holds every pair the reservoir ever accepted; evicted
	// pairs stay (their watchers are tombstoned) so handles never move.
	pairArena []trianglePair

	pass   int
	pos    int   // current adjacency-list position (1-based)
	items  int64 // items seen in pass one; m = items/2
	m      int64
	meter  space.Meter
	tele   estTele
	inList bool

	// Restored-run summary (state.go); nil unless Restore was called.
	snap      *stream.CopyState
	snapPairs int64
}

var _ stream.Estimator = (*TwoPassTriangle)(nil)

// NewTwoPassTriangle validates cfg and returns the estimator.
func NewTwoPassTriangle(cfg TriangleConfig) (*TwoPassTriangle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pc := cfg.pairCap()
	vx := newVertexIndex(2 * cfg.sampleHint())
	t := &TwoPassTriangle{
		cfg:       cfg,
		vx:        vx,
		det:       newDetector(vx, 2*cfg.sampleHint()),
		watch:     newWatchSet(vx, 3*pc),
		pairArena: make([]trianglePair, 0, presize(pc)),
	}
	if cfg.SampleSize > 0 {
		t.sampler = sampling.NewBottomK(cfg.SampleSize, cfg.Seed, func(e graph.Edge) {
			if t.det.markDead(e) >= 0 {
				t.meter.Release(space.WordsPerEdge + 2)
			}
		})
	} else {
		fp, err := sampling.NewFixedProb(cfg.SampleProb, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.sampler = fp
	}
	t.pairs = sampling.NewReservoir[int32](pc, cfg.Seed^0x5bf0_3635)
	t.tele = newEstTele("twopass_triangle", &t.meter)
	return t, nil
}

// Passes implements stream.Algorithm.
func (t *TwoPassTriangle) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (t *TwoPassTriangle) StartPass(p int) {
	t.pass = p
	t.pos = 0
	t.inList = false
}

// StartList implements stream.Algorithm.
func (t *TwoPassTriangle) StartList(owner graph.V) {
	t.pos++
	t.inList = true
	if t.pass == 0 {
		t.det.notePos(owner, t.pos)
	}
}

// Edge implements stream.Algorithm.
func (t *TwoPassTriangle) Edge(owner, nbr graph.V) {
	if t.pass == 0 {
		t.items++
		if t.sampler.Offer(owner, nbr) && !t.det.tracked(owner, nbr) {
			// True first appearance of a sampled edge: start tracking.
			t.det.track(owner, nbr, t.pos)
			t.meter.Charge(space.WordsPerEdge + 2)
		}
	}
	vs := t.vx.slot(nbr)
	t.det.flag(vs)
	if t.pass == 1 {
		t.watch.flag(vs)
	}
}

// EndList implements stream.Algorithm.
func (t *TwoPassTriangle) EndList(owner graph.V) {
	if t.pass == 1 {
		t.watch.finishList(t.pos)
	}
	for _, h := range t.det.endList() {
		// h's both endpoints appeared in owner's list: triangle (h, owner).
		// Pass one discovers apexes arriving after the edge entered the
		// sample; pass two is restricted to the complementary prefix so
		// each (edge, triangle) pair is discovered exactly once.
		if t.pass == 0 || t.pos < t.det.recs[h].posFirst {
			t.addPair(h, owner)
		}
	}
	t.inList = false
}

// EndPass implements stream.Algorithm.
func (t *TwoPassTriangle) EndPass(p int) {
	t.tele.occupancy.Set(int64(t.det.len()))
	t.tele.pairsKept.Set(int64(t.pairs.Len()))
	t.tele.liveWords.Set(t.meter.Live())
	if p != 0 {
		t.tele.pairsFound.Add(t.pairs.Offered())
		return
	}
	t.m = t.items / 2
	// All endpoint positions are known now; resolve deferred thresholds and
	// tombstone watchers of pairs whose edge was evicted during pass one.
	for _, ph := range t.pairs.Items() {
		pr := &t.pairArena[ph]
		for _, w := range pr.w {
			if t.det.dead(pr.rec) {
				t.watch.kill(w)
				continue
			}
			t.watch.resolve(w, t.det)
		}
	}
}

// addPair records a discovered (edge, triangle) pair: counts it toward the
// pair total and offers it to the reservoir Q, registering its three
// H watchers only if retained.
func (t *TwoPassTriangle) addPair(rh int32, apex graph.V) {
	ph := int32(len(t.pairArena))
	victim, evicted, accepted := t.pairs.Offer(ph)
	if evicted {
		for _, w := range t.pairArena[victim].w {
			t.watch.kill(w)
		}
		t.meter.Release(space.WordsPerTriangle + 3*space.WordsPerWatcher)
	}
	if !accepted {
		return
	}
	r := &t.det.recs[rh]
	pr := trianglePair{rec: rh, apex: apex}
	pr.w[0] = t.watch.add(r.u, r.v, watcher{thresh: t.pos, threshRec: -1})
	pr.w[1] = t.watch.add(r.u, apex, watcher{threshRec: rh, threshAt: r.v, thresh: -1})
	pr.w[2] = t.watch.add(r.v, apex, watcher{threshRec: rh, threshAt: r.u, thresh: -1})
	if t.pass == 1 {
		// Both endpoint positions are known after pass one.
		t.watch.resolve(pr.w[1], t.det)
		t.watch.resolve(pr.w[2], t.det)
	}
	t.pairArena = append(t.pairArena, pr)
	t.meter.Charge(space.WordsPerTriangle + 3*space.WordsPerWatcher)
}

// rho reports whether the pair's triangle has its argmin-H edge equal to the
// sampled edge, with ties broken toward the lexicographically smallest edge
// (an intrinsic, sample-independent tie break). d and s hold the pair's
// edge record and watchers.
func (pr *trianglePair) rho(d *detector, s *watchSet) bool {
	r := &d.recs[pr.rec]
	sampled := graph.Edge{U: r.u, V: r.v}
	best := sampled
	bestH := s.count(pr.w[0])
	for i, other := range [2]graph.Edge{
		graph.Edge{U: r.u, V: pr.apex}.Norm(),
		graph.Edge{U: r.v, V: pr.apex}.Norm(),
	} {
		h := s.count(pr.w[i+1])
		if h < bestH || (h == bestH && edgeLess(other, best)) {
			best, bestH = other, h
		}
	}
	return best == sampled
}

func edgeLess(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// Estimate returns the triangle estimate
//
//	T̂ = scale · (N/|Q|) · |{(e,τ) ∈ Q : ρ(τ) = e}|
//
// where scale = 1/Pr[e ∈ S] and N is the total number of discovered pairs.
func (t *TwoPassTriangle) Estimate() float64 {
	if t.snap != nil {
		return t.snap.Estimate
	}
	q := t.pairs.Len()
	if q == 0 {
		return 0
	}
	matched := 0
	for _, ph := range t.pairs.Items() {
		pr := &t.pairArena[ph]
		if t.det.dead(pr.rec) {
			continue
		}
		if pr.rho(t.det, t.watch) {
			matched++
		}
	}
	scale := t.sampler.InclusionScale(t.m)
	dilution := float64(t.pairs.Offered()) / float64(q)
	return scale * dilution * float64(matched)
}

// SpaceWords implements stream.Estimator.
func (t *TwoPassTriangle) SpaceWords() int64 {
	if t.snap != nil {
		return t.snap.SpaceWords
	}
	return t.meter.Peak()
}

// SampledEdges returns the current number of live sampled edges (for space
// diagnostics and tests).
func (t *TwoPassTriangle) SampledEdges() int { return t.det.len() }

// SampledTriangles returns the triangles of the ρ-matched pairs. Because a
// triangle enters this set exactly when its unique ρ(τ) edge is sampled
// (and survives the pair reservoir), the returned set is a uniformly random
// subset of the graph's triangles — the streaming triangle-sampling
// primitive of Pavan et al. for free, as a by-product of the lightest-edge
// rule. Valid after both passes.
func (t *TwoPassTriangle) SampledTriangles() []graph.Triangle {
	var out []graph.Triangle
	for _, ph := range t.pairs.Items() {
		pr := &t.pairArena[ph]
		if t.det.dead(pr.rec) || !pr.rho(t.det, t.watch) {
			continue
		}
		r := &t.det.recs[pr.rec]
		out = append(out, sortedTriangle(r.u, r.v, pr.apex))
	}
	return out
}

func sortedTriangle(a, b, c graph.V) graph.Triangle {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return graph.Triangle{A: a, B: b, C: c}
}

// PairsDiscovered returns N, the total number of (edge, triangle) pairs
// found across both passes (including pairs for edges later evicted).
func (t *TwoPassTriangle) PairsDiscovered() int64 {
	if t.snap != nil {
		return t.snapPairs
	}
	return t.pairs.Offered()
}

// M returns the edge count measured in pass one.
func (t *TwoPassTriangle) M() int64 { return t.m }
