package baseline

import (
	"adjstream/internal/graph"
	"adjstream/internal/stream"
)

// StreamStats is a single-pass O(1)-space-per-list counter for the global
// quantities the estimators' budgets are stated in: the edge count m, the
// list (vertex) count, the wedge count P2 = Σ C(deg v, 2), the maximum
// degree, and degree moments. In the adjacency-list model the degree of the
// current list is exact by the list's end, so P2 needs only a running sum —
// the reason transitivity 3T/P2 needs no second estimator.
type StreamStats struct {
	items   int64
	lists   int64
	curDeg  int64
	maxDeg  int64
	p2      int64
	degSq   int64
	started bool
}

var _ stream.Algorithm = (*StreamStats)(nil)

// NewStreamStats returns an empty counter.
func NewStreamStats() *StreamStats { return &StreamStats{} }

// Passes implements stream.Algorithm.
func (c *StreamStats) Passes() int { return 1 }

// StartPass implements stream.Algorithm.
func (c *StreamStats) StartPass(p int) {}

// StartList implements stream.Algorithm.
func (c *StreamStats) StartList(owner graph.V) {
	c.lists++
	c.curDeg = 0
	c.started = true
}

// Edge implements stream.Algorithm.
func (c *StreamStats) Edge(owner, nbr graph.V) {
	c.items++
	c.curDeg++
}

// EndList implements stream.Algorithm.
func (c *StreamStats) EndList(owner graph.V) {
	d := c.curDeg
	c.p2 += d * (d - 1) / 2
	c.degSq += d * d
	if d > c.maxDeg {
		c.maxDeg = d
	}
}

// EndPass implements stream.Algorithm.
func (c *StreamStats) EndPass(p int) {}

// M returns the edge count m.
func (c *StreamStats) M() int64 { return c.items / 2 }

// Lists returns the number of adjacency lists (non-isolated vertices).
func (c *StreamStats) Lists() int64 { return c.lists }

// WedgeCount returns P2.
func (c *StreamStats) WedgeCount() int64 { return c.p2 }

// MaxDegree returns the maximum list length.
func (c *StreamStats) MaxDegree() int64 { return c.maxDeg }

// DegreeSecondMoment returns Σ deg(v)².
func (c *StreamStats) DegreeSecondMoment() int64 { return c.degSq }

// Transitivity combines an external triangle estimate with the exact P2
// into the global clustering coefficient 3T̂/P2 (0 when P2 = 0).
func (c *StreamStats) Transitivity(triangleEstimate float64) float64 {
	if c.p2 == 0 {
		return 0
	}
	return 3 * triangleEstimate / float64(c.p2)
}
