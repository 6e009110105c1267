package core

import (
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// ThreePassTriangle is the Section 2.1 three-pass algorithm: pass one
// samples edges, passes one and two collect every triangle on a sampled
// edge, and pass three computes the exact triangle loads T(e′) of all three
// edges of every collected triangle. A triangle is counted iff it was
// sampled at its exact lightest edge argmin_{e′∈τ} T(e′).
//
// Compared with TwoPassTriangle it trades one extra pass for exact loads
// (no H proxy) and stores the entire candidate set Q, whose size is
// (m′/m)·3T in expectation — the two problems the final algorithm fixes.
// It is retained as the Table 1 row-4 representative and for the A2
// ablation (H proxy versus exact T_e).
type ThreePassTriangle struct {
	cfg     TriangleConfig
	sampler sampling.EdgeSampler
	vx      *vertexIndex // shared by det and watch
	det     *detector
	watch   *watchSet
	pairs   []trianglePair

	pass  int
	pos   int
	items int64
	m     int64
	meter space.Meter

	// Restored-run summary (state.go); nil unless Restore was called.
	snap      *stream.CopyState
	snapPairs int
}

var _ stream.Estimator = (*ThreePassTriangle)(nil)

// NewThreePassTriangle validates cfg and returns the estimator. PairCap is
// ignored: this variant deliberately stores all collected triangles.
func NewThreePassTriangle(cfg TriangleConfig) (*ThreePassTriangle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.sampleHint()
	vx := newVertexIndex(2 * n)
	t := &ThreePassTriangle{cfg: cfg, vx: vx, det: newDetector(vx, 2*n), watch: newWatchSet(vx, 3*n)}
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
	return t, nil
}

// Passes implements stream.Algorithm.
func (t *ThreePassTriangle) Passes() int { return 3 }

// StartPass implements stream.Algorithm.
func (t *ThreePassTriangle) StartPass(p int) {
	t.pass = p
	t.pos = 0
}

// StartList implements stream.Algorithm.
func (t *ThreePassTriangle) StartList(owner graph.V) {
	t.pos++
	if t.pass == 0 {
		t.det.notePos(owner, t.pos)
	}
}

// Edge implements stream.Algorithm.
func (t *ThreePassTriangle) Edge(owner, nbr graph.V) {
	switch t.pass {
	case 0:
		t.items++
		if t.sampler.Offer(owner, nbr) && !t.det.tracked(owner, nbr) {
			t.det.track(owner, nbr, t.pos)
			t.meter.Charge(space.WordsPerEdge + 2)
		}
		t.det.flag(t.vx.slot(nbr))
	case 1:
		t.det.flag(t.vx.slot(nbr))
	case 2:
		t.watch.flag(t.vx.slot(nbr))
	}
}

// EndList implements stream.Algorithm.
func (t *ThreePassTriangle) EndList(owner graph.V) {
	switch t.pass {
	case 0:
		for _, h := range t.det.endList() {
			t.collect(h, owner)
		}
	case 1:
		for _, h := range t.det.endList() {
			if t.pos < t.det.recs[h].posFirst {
				t.collect(h, owner)
			}
		}
	case 2:
		t.watch.finishList(t.pos)
	}
}

// EndPass implements stream.Algorithm.
func (t *ThreePassTriangle) EndPass(p int) {
	switch p {
	case 0:
		t.m = t.items / 2
	case 1:
		// Register an exact-load counter (threshold 0 counts every apex) for
		// each edge of each collected triangle, counted during pass three.
		for i := range t.pairs {
			pr := &t.pairs[i]
			if t.det.dead(pr.rec) {
				continue
			}
			r := &t.det.recs[pr.rec]
			load := watcher{threshRec: -1}
			pr.w[0] = t.watch.add(r.u, r.v, load)
			pr.w[1] = t.watch.add(r.u, pr.apex, load)
			pr.w[2] = t.watch.add(r.v, pr.apex, load)
			t.meter.Charge(3 * space.WordsPerWatcher)
		}
	}
}

func (t *ThreePassTriangle) collect(h int32, apex graph.V) {
	t.pairs = append(t.pairs, trianglePair{rec: h, apex: apex, w: [3]int32{-1, -1, -1}})
	t.meter.Charge(space.WordsPerTriangle)
}

// Estimate returns scale · |{(e,τ) collected : argmin_{e′∈τ} T(e′) = e}|.
func (t *ThreePassTriangle) Estimate() float64 {
	if t.snap != nil {
		return t.snap.Estimate
	}
	matched := 0
	for i := range t.pairs {
		pr := &t.pairs[i]
		if t.det.dead(pr.rec) || pr.w[0] < 0 {
			continue
		}
		if pr.rho(t.det, t.watch) {
			matched++
		}
	}
	return t.sampler.InclusionScale(t.m) * float64(matched)
}

// SpaceWords implements stream.Estimator.
func (t *ThreePassTriangle) SpaceWords() int64 {
	if t.snap != nil {
		return t.snap.SpaceWords
	}
	return t.meter.Peak()
}

// PairsCollected returns |Q|, the number of (edge, triangle) pairs stored.
func (t *ThreePassTriangle) PairsCollected() int {
	if t.snap != nil {
		return t.snapPairs
	}
	return len(t.pairs)
}

// M returns the edge count measured in pass one.
func (t *ThreePassTriangle) M() int64 { return t.m }
