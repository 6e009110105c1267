package core

import (
	"cmp"
	"fmt"
	"slices"

	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// FourCycleConfig parameterizes the two-pass 4-cycle estimator.
type FourCycleConfig struct {
	// SampleSize m′ selects bottom-k edge sampling. Exactly one of
	// SampleSize / SampleProb must be set.
	SampleSize int
	// SampleProb selects independent per-edge hash sampling.
	SampleProb float64
	// WedgeCap optionally bounds the wedge set Q by reservoir sampling
	// (0 = keep every wedge formed inside the sample, as in the paper).
	WedgeCap int
	// Seed drives all sampling decisions deterministically.
	Seed uint64
}

func (c FourCycleConfig) validate() error {
	hasSize := c.SampleSize > 0
	hasProb := c.SampleProb > 0
	if hasSize == hasProb {
		return fmt.Errorf("core: exactly one of SampleSize and SampleProb must be set (size=%d prob=%v)", c.SampleSize, c.SampleProb)
	}
	if hasProb && c.SampleProb > 1 {
		return fmt.Errorf("core: SampleProb %v > 1", c.SampleProb)
	}
	if c.WedgeCap < 0 {
		return fmt.Errorf("core: negative WedgeCap %d", c.WedgeCap)
	}
	return nil
}

// sampledWedge is one wedge a–center–b formed by two sampled edges. Its
// endpoints a and b are sides 0 and 1 of its record in the wedge
// incidence engine, which holds the flags for counting, in pass two, the
// 4-cycles that contain it.
type sampledWedge struct {
	center graph.V
	count  int64 // T_w: 4-cycles through this wedge
	slot   int32 // index in TwoPassFourCycle.live
}

// TwoPassFourCycle is the paper's Theorem 4.6 algorithm: pass one samples a
// set S of edges; the wedge set Q consists of the wedges formed by pairs of
// sampled edges sharing an endpoint; pass two counts, for each wedge w ∈ Q,
// the exact number T_w of 4-cycles containing it (every list owner adjacent
// to both wedge endpoints, other than the center, closes one). The estimate
// Σ T_w / (4·Pr[both wedge edges sampled]) is an O(1)-factor approximation:
// Lemma 4.2 guarantees a constant fraction of 4-cycles contain a "good"
// wedge, which bounds the variance, while each cycle has exactly four
// wedges, which centers the estimator.
//
// Unlike the triangle algorithm, pass two need not replay pass one's order.
type TwoPassFourCycle struct {
	cfg     FourCycleConfig
	sampler sampling.EdgeSampler

	wedges      []sampledWedge // arena, indexed by handle; dropped wedges stay
	inc         incidence      // wedge endpoints → flag lists
	live        []int32        // handles of the kept wedges (Q)
	totalWedges int64          // wedges formed (before any cap)

	pass  int
	items int64
	m     int64
	meter space.Meter
	tele  estTele

	// Restored-run summary (state.go); nil unless Restore was called.
	snap       *stream.CopyState
	snapKept   int
	snapCycles int64
}

var _ stream.Estimator = (*TwoPassFourCycle)(nil)

// NewTwoPassFourCycle validates cfg and returns the estimator.
func NewTwoPassFourCycle(cfg FourCycleConfig) (*TwoPassFourCycle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &TwoPassFourCycle{cfg: cfg}
	if cfg.SampleSize > 0 {
		f.sampler = sampling.NewBottomK(cfg.SampleSize, cfg.Seed, nil)
	} else {
		fp, err := sampling.NewFixedProb(cfg.SampleProb, cfg.Seed)
		if err != nil {
			return nil, err
		}
		f.sampler = fp
	}
	f.tele = newEstTele("twopass_fourcycle", &f.meter)
	return f, nil
}

// Passes implements stream.Algorithm.
func (f *TwoPassFourCycle) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (f *TwoPassFourCycle) StartPass(p int) {
	f.pass = p
}

// StartList implements stream.Algorithm.
func (f *TwoPassFourCycle) StartList(owner graph.V) {}

// Edge implements stream.Algorithm.
func (f *TwoPassFourCycle) Edge(owner, nbr graph.V) {
	switch f.pass {
	case 0:
		f.items++
		f.sampler.Offer(owner, nbr)
	case 1:
		f.inc.flag(f.inc.vx.slot(nbr))
	}
}

// EndList implements stream.Algorithm.
func (f *TwoPassFourCycle) EndList(owner graph.V) {
	if f.pass != 1 {
		return
	}
	for _, h := range f.inc.endList() {
		// owner adjacent to both wedge endpoints closes a 4-cycle, unless
		// owner is the wedge's own center.
		if w := &f.wedges[h]; owner != w.center {
			w.count++
		}
	}
}

// EndPass implements stream.Algorithm.
func (f *TwoPassFourCycle) EndPass(p int) {
	if p != 0 {
		f.tele.liveWords.Set(f.meter.Live())
		return
	}
	f.m = f.items / 2
	f.meter.Charge(int64(f.sampler.Len()) * space.WordsPerEdge)
	f.buildWedges()
	f.tele.occupancy.Set(int64(f.sampler.Len()))
	f.tele.pairsKept.Set(int64(len(f.live)))
	f.tele.pairsFound.Add(f.totalWedges)
	f.tele.liveWords.Set(f.meter.Live())
}

// buildWedges forms Q, the wedges inside the final edge sample, visiting
// centers in increasing order and each center's neighbour pairs in
// increasing order, so the wedge order (and any WedgeCap reservoir's
// choices) is reproducible.
func (f *TwoPassFourCycle) buildWedges() {
	// Both orientations of every sampled edge, sorted by (center, nbr):
	// each center's neighbours form one contiguous sorted run.
	edges := f.sampledEdges()
	arcs := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		arcs = append(arcs, e, graph.Edge{U: e.V, V: e.U})
	}
	slices.SortFunc(arcs, func(x, y graph.Edge) int {
		if c := cmp.Compare(x.U, y.U); c != 0 {
			return c
		}
		return cmp.Compare(x.V, y.V)
	})
	var res *sampling.Reservoir[int32]
	if f.cfg.WedgeCap > 0 {
		res = sampling.NewReservoir[int32](f.cfg.WedgeCap, f.cfg.Seed^0x77ed_21f3)
	}
	f.inc.init(newVertexIndex(len(arcs)), len(arcs))
	for i := 0; i < len(arcs); {
		c := arcs[i].U
		j := i
		for j < len(arcs) && arcs[j].U == c {
			j++
		}
		ns := arcs[i:j]
		for x := range ns {
			for y := x + 1; y < len(ns); y++ {
				f.totalWedges++
				if res == nil {
					f.keepWedge(ns[x].V, c, ns[y].V)
					continue
				}
				h := int32(len(f.wedges))
				if victim, evicted, accepted := res.Offer(h); accepted {
					if evicted {
						f.dropWedge(victim)
					}
					f.keepWedge(ns[x].V, c, ns[y].V)
				}
			}
		}
		i = j
	}
}

func (f *TwoPassFourCycle) keepWedge(a, center, b graph.V) {
	h := f.inc.add(a, b)
	f.wedges = append(f.wedges, sampledWedge{center: center, slot: int32(len(f.live))})
	f.live = append(f.live, h)
	f.meter.Charge(space.WordsPerWedge + space.WordsPerCounter)
}

// dropWedge removes wedge h from Q in O(1): the last kept wedge moves into
// h's slot. Estimate only sums the kept counts, so the order of live does
// not matter; the tombstone stops pass two from flagging h.
func (f *TwoPassFourCycle) dropWedge(h int32) {
	i := f.wedges[h].slot
	last := f.live[len(f.live)-1]
	f.live[i] = last
	f.wedges[last].slot = i
	f.live = f.live[:len(f.live)-1]
	f.inc.kill(h)
	f.meter.Release(space.WordsPerWedge + space.WordsPerCounter)
}

func (f *TwoPassFourCycle) sampledEdges() []graph.Edge {
	switch s := f.sampler.(type) {
	case *sampling.BottomK:
		return s.Edges()
	case *sampling.FixedProb:
		return s.Edges()
	default:
		return nil
	}
}

// Estimate returns Σ_{w∈Q} T_w · dilution / (4·p₂), where p₂ is the
// probability both edges of a wedge are sampled and dilution corrects for a
// WedgeCap reservoir. Each 4-cycle has exactly four wedges, hence the 1/4.
func (f *TwoPassFourCycle) Estimate() float64 {
	if f.snap != nil {
		return f.snap.Estimate
	}
	sum := f.keptCycles()
	p2 := f.pairInclusionProb()
	if p2 <= 0 {
		return 0
	}
	dilution := 1.0
	if f.cfg.WedgeCap > 0 && f.totalWedges > int64(len(f.live)) && len(f.live) > 0 {
		dilution = float64(f.totalWedges) / float64(len(f.live))
	}
	return float64(sum) * dilution / (4 * p2)
}

// pairInclusionProb returns Pr[both edges of a fixed wedge are in S].
func (f *TwoPassFourCycle) pairInclusionProb() float64 {
	switch s := f.sampler.(type) {
	case *sampling.BottomK:
		if f.m < 2 {
			return 1
		}
		sz := int64(f.cfg.SampleSize)
		if f.m < sz {
			sz = f.m
		}
		return float64(sz) * float64(sz-1) / (float64(f.m) * float64(f.m-1))
	case *sampling.FixedProb:
		return s.P() * s.P()
	default:
		return 0
	}
}

// SpaceWords implements stream.Estimator.
func (f *TwoPassFourCycle) SpaceWords() int64 {
	if f.snap != nil {
		return f.snap.SpaceWords
	}
	return f.meter.Peak()
}

// WedgesFormed returns the total number of wedges formed inside the sample
// (before any cap).
func (f *TwoPassFourCycle) WedgesFormed() int64 { return f.totalWedges }

// WedgesKept returns |Q| after any cap.
func (f *TwoPassFourCycle) WedgesKept() int {
	if f.snap != nil {
		return f.snapKept
	}
	return len(f.live)
}

// CyclesThroughSampledWedges returns Σ_{w∈Q} T_w, the raw pass-two count.
func (f *TwoPassFourCycle) CyclesThroughSampledWedges() int64 {
	if f.snap != nil {
		return f.snapCycles
	}
	return f.keptCycles()
}

// keptCycles returns Σ_{w∈Q} T_w over the kept wedges.
func (f *TwoPassFourCycle) keptCycles() int64 {
	var sum int64
	for _, h := range f.live {
		sum += f.wedges[h].count
	}
	return sum
}

// M returns the edge count measured in pass one.
func (f *TwoPassFourCycle) M() int64 { return f.m }
