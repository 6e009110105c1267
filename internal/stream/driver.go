package stream

import (
	"context"
	"fmt"

	"adjstream/internal/graph"
)

// Algorithm is a multi-pass adjacency-list streaming algorithm. The driver
// calls StartPass, then for each adjacency list StartList, Edge (once per
// item), EndList, and finally EndPass — in stream order, item at a time, so
// the algorithm can only use the state it explicitly stores.
type Algorithm interface {
	// Passes returns the number of passes the algorithm requires.
	Passes() int
	// StartPass is called before the first item of pass p (0-based).
	StartPass(p int)
	// StartList is called when the adjacency list of owner begins.
	StartList(owner graph.V)
	// Edge is called for each item (owner, nbr) of the current list.
	Edge(owner, nbr graph.V)
	// EndList is called when the adjacency list of owner ends.
	EndList(owner graph.V)
	// EndPass is called after the last item of pass p.
	EndPass(p int)
}

// Run replays s once per pass of a. Every pass sees the identical order, the
// setting required by the paper's two-pass triangle algorithm.
func Run(s *Stream, a Algorithm) {
	// context.Background never fires, so RunContext cannot fail here.
	_ = RunContext(context.Background(), s, a)
}

// CancelCheckItems is the cancellation granularity of the drivers: a run
// polls ctx once per chunk, so a cancelled run stops within one chunk,
// never mid-callback.
const CancelCheckItems = DefaultChunkItems

// RunContext is Run with cooperative cancellation: it replays s once per
// pass of a, polling ctx between passes and once per chunk. On
// cancellation it abandons the run — the current pass's EndList/EndPass
// are not delivered, and a's state is unspecified — and returns ctx.Err().
// A context that never fires adds no per-item work and yields exactly the
// callback sequence of Run.
func RunContext(ctx context.Context, s *Stream, a Algorithm) error {
	algs := [1]Algorithm{a}
	_, err := drive(ctx, sameStream(s), algs[:], 1, wholeChunks, teleForDriver("run"))
	return err
}

// RunSequentialContext drives every copy over s on the calling goroutine:
// one traversal per pass, each chunk handed to every copy in turn. Results
// are those of RunContext on each copy separately; cancellation behaves as
// in RunContext.
func RunSequentialContext(ctx context.Context, s *Stream, copies []Estimator) error {
	_, err := drive(ctx, sameStream(s), algorithms(copies), 1, wholeChunks, teleForDriver("run"))
	return err
}

// RunOrders drives a with a (possibly) different stream per pass. All
// streams must present the same graph; this models algorithms such as the
// 4-cycle counter that do not require identical pass orders. It returns an
// error if the number of streams does not match the pass count or the
// streams disagree on the edge count.
func RunOrders(streams []*Stream, a Algorithm) error {
	if len(streams) != a.Passes() {
		return fmt.Errorf("stream: %d streams for %d passes", len(streams), a.Passes())
	}
	for i := 1; i < len(streams); i++ {
		if streams[i].M() != streams[0].M() {
			return fmt.Errorf("stream: pass %d has m=%d, pass 0 has m=%d", i, streams[i].M(), streams[0].M())
		}
	}
	algs := [1]Algorithm{a}
	streamAt := func(p int) *Stream { return streams[p] }
	// context.Background never fires, so the run cannot fail.
	_, _ = drive(context.Background(), streamAt, algs[:], 1, wholeChunks, teleForDriver("run"))
	return nil
}

// Estimator is an Algorithm that produces a numeric estimate after its final
// pass, along with the peak number of machine words of state it used.
type Estimator interface {
	Algorithm
	// Estimate returns the final estimate; valid after Run.
	Estimate() float64
	// SpaceWords returns the peak words of state used across all passes.
	SpaceWords() int64
}

// Estimate runs e over s and returns its estimate and peak space.
func Estimate(s *Stream, e Estimator) (est float64, words int64) {
	Run(s, e)
	return e.Estimate(), e.SpaceWords()
}
