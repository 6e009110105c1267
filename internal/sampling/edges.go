package sampling

import (
	"fmt"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
)

// EdgeSampler decides streaming membership of edges in the sample set S.
// Both samplers share the crucial first-sight property: Offer must be called
// the first time an edge appears (in either orientation), and an edge that
// is in the final sample was accepted at that moment and never left — except
// under bottom-k, which may evict and reports evictions to the caller.
type EdgeSampler interface {
	// Offer presents edge {u,v} at its first appearance and reports whether
	// it is (currently) in the sample.
	Offer(u, v graph.V) bool
	// Contains reports whether {u,v} is currently in the sample.
	Contains(u, v graph.V) bool
	// Len returns the current sample size.
	Len() int
	// InclusionScale returns the factor 1/Pr[e ∈ S] used by estimators,
	// given the final number of edges m (needed by bottom-k).
	InclusionScale(m int64) float64
}

// FixedProb includes each edge independently with probability p, decided by
// a seeded hash, so both appearances of an edge agree.
type FixedProb struct {
	seed      uint64
	threshold uint64
	p         float64
	set       map[graph.Edge]struct{}
}

// NewFixedProb returns a hash sampler with inclusion probability p. p must
// lie in (0,1]; anything else (including NaN) is a configuration error — a
// sampler that can never accept an edge turns into a silent zero estimate
// downstream, so the mistake is rejected here instead.
func NewFixedProb(p float64, seed uint64) (*FixedProb, error) {
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("sampling: fixed-prob rate %v outside (0,1]", p)
	}
	return &FixedProb{
		seed:      seed,
		threshold: ProbThreshold(p),
		p:         p,
		set:       make(map[graph.Edge]struct{}),
	}, nil
}

// Offer implements EdgeSampler.
func (f *FixedProb) Offer(u, v graph.V) bool {
	if HashEdge(f.seed, u, v) < f.threshold {
		f.set[graph.Edge{U: u, V: v}.Norm()] = struct{}{}
		return true
	}
	return false
}

// Contains implements EdgeSampler.
func (f *FixedProb) Contains(u, v graph.V) bool {
	_, ok := f.set[graph.Edge{U: u, V: v}.Norm()]
	return ok
}

// Len implements EdgeSampler.
func (f *FixedProb) Len() int { return len(f.set) }

// InclusionScale implements EdgeSampler.
func (f *FixedProb) InclusionScale(m int64) float64 {
	if f.p <= 0 {
		return 0
	}
	return 1 / f.p
}

// P returns the inclusion probability.
func (f *FixedProb) P() float64 { return f.p }

// Edges returns the edges currently in the sample (unsorted).
func (f *FixedProb) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(f.set))
	for e := range f.set {
		out = append(out, e)
	}
	return out
}

// BottomK keeps the k edges with the smallest hash values seen so far. The
// final sample is a uniformly random size-k subset of the edges (or all of
// them if fewer than k arrive). Because the running threshold (the k-th
// smallest hash) only decreases, every edge in the final sample has been in
// the running sample since its first appearance.
//
// The sample is a max-heap on hash plus a flat membership index keyed by
// the same hash. The index changes only when an edge enters or leaves the
// heap, never while the heap reorders, and after warm-up most offers are
// rejected on the hash alone, before any lookup.
type BottomK struct {
	seed    uint64
	k       int
	h       []hashEntry // max-heap on hash
	in      *flat.Table[graph.Edge]
	onEvict func(graph.Edge)
}

type hashEntry struct {
	e graph.Edge
	h uint64
}

// less orders the max-heap. up and down are container/heap's sift loops
// on the concrete slice, step for step, so the layout (and the order
// Edges reports) is what container/heap would produce.
func (b *BottomK) less(i, j int) bool { return b.h[i].h > b.h[j].h }

func (b *BottomK) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !b.less(j, i) {
			break
		}
		b.h[i], b.h[j] = b.h[j], b.h[i]
		j = i
	}
}

func (b *BottomK) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && b.less(j2, j1) {
			j = j2 // right child
		}
		if !b.less(j, i) {
			break
		}
		b.h[i], b.h[j] = b.h[j], b.h[i]
		i = j
	}
}

func (b *BottomK) push(x hashEntry) {
	b.in.Put(x.e, x.h, 0)
	b.h = append(b.h, x)
	b.up(len(b.h) - 1)
}

func (b *BottomK) pop() hashEntry {
	n := len(b.h) - 1
	b.h[0], b.h[n] = b.h[n], b.h[0]
	b.down(0, n)
	x := b.h[n]
	b.h = b.h[:n]
	b.in.Delete(x.e, x.h)
	return x
}

// NewBottomK returns a bottom-k sampler of capacity k. onEvict, if non-nil,
// is invoked whenever a previously accepted edge leaves the sample, letting
// callers discard dependent state (e.g. collected triangles).
func NewBottomK(k int, seed uint64, onEvict func(graph.Edge)) *BottomK {
	if k <= 0 {
		panic("sampling: bottom-k capacity must be positive")
	}
	// k is a cap a short stream may never fill, so only a bounded
	// reservation is made up front; both grow by doubling past it.
	n := min(k, 1<<13)
	return &BottomK{
		seed:    seed,
		k:       k,
		h:       make([]hashEntry, 0, n),
		in:      flat.New[graph.Edge](n),
		onEvict: onEvict,
	}
}

// Offer implements EdgeSampler. Offering an edge that is already in the
// sample is a no-op reporting true, so both stream appearances of an edge
// may be offered safely. A member's hash is at most the heap top, so a
// full sample rejects any larger hash without a membership lookup.
func (b *BottomK) Offer(u, v graph.V) bool {
	hv := HashEdge(b.seed, u, v)
	full := len(b.h) >= b.k
	if full && hv > b.h[0].h {
		return false
	}
	e := graph.Edge{U: u, V: v}.Norm()
	if _, ok := b.in.Get(e, hv); ok {
		return true
	}
	if !full {
		b.push(hashEntry{e, hv})
		return true
	}
	if hv >= b.h[0].h {
		return false
	}
	victim := b.pop()
	b.push(hashEntry{e, hv})
	if b.onEvict != nil {
		b.onEvict(victim.e)
	}
	return true
}

// Shrink reduces the sampler's capacity to newK (no-op if newK ≥ current),
// evicting the largest-hash edges. Because capacity only decreases, the
// final sample remains exactly the bottom-newK set by hash — a uniformly
// random subset — and every surviving edge has been in the sample since its
// first appearance, preserving the property the two-pass algorithm needs.
// This is what makes adaptive space budgets possible when T is unknown.
func (b *BottomK) Shrink(newK int) {
	if newK < 1 || newK >= b.k {
		return
	}
	b.k = newK
	for len(b.h) > b.k {
		victim := b.pop()
		if b.onEvict != nil {
			b.onEvict(victim.e)
		}
	}
}

// K returns the current capacity.
func (b *BottomK) K() int { return b.k }

// Contains implements EdgeSampler.
func (b *BottomK) Contains(u, v graph.V) bool {
	_, ok := b.in.Get(graph.Edge{U: u, V: v}.Norm(), HashEdge(b.seed, u, v))
	return ok
}

// Len implements EdgeSampler.
func (b *BottomK) Len() int { return len(b.h) }

// InclusionScale implements EdgeSampler. For bottom-k the final sample has
// min(k, m) edges, each equally likely, so Pr[e ∈ S] = min(k,m)/m.
func (b *BottomK) InclusionScale(m int64) float64 {
	if m <= 0 {
		return 0
	}
	sz := int64(b.k)
	if m < sz {
		sz = m
	}
	return float64(m) / float64(sz)
}

// Edges returns the edges currently in the sample (unsorted).
func (b *BottomK) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(b.h))
	for _, e := range b.h {
		out = append(out, e.e)
	}
	return out
}
