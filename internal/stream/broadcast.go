package stream

import (
	"context"
	"runtime"

	"adjstream/internal/stats"
)

// The paper's estimators are median-of-k independent copies over the same
// adjacency-list stream (Theorems 3.7 and 4.6). Replaying the stream once
// per copy costs O(k · passes · 2m) stream-item reads for what is logically
// O(passes · 2m): every copy sees the identical item sequence. RunBroadcast
// is the shared-traversal driver: each pass reads the stream once and fans
// the items out to all copies. Workers iterate the immutable chunks
// directly for their shard of copies (see pull.go, which also hosts the
// pass loop every other driver uses). Per-copy semantics are exactly those
// of sequential Run — same item order, same list boundaries, independent
// per-copy state — so deterministic (fixed-seed) estimators produce
// bit-identical estimates.

// BroadcastConfig tunes RunBroadcastConfig. The zero value selects the
// defaults and is what RunBroadcast uses.
type BroadcastConfig struct {
	// Workers bounds the worker-pool size; estimator copies are sharded
	// contiguously across workers (default GOMAXPROCS). Always clamped to
	// the number of active copies, so an oversized setting cannot spawn
	// idle workers.
	Workers int
	// Window is the number of stream items fanned to all copies of a
	// shard per step (default DefaultPullWindow). Small windows let the
	// CPU overlap the independent copies' dependency chains; see pull.go.
	Window int
}

func (c BroadcastConfig) withDefaults() BroadcastConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Window <= 0 {
		c.Window = DefaultPullWindow
	}
	return c
}

// DriverStats counts the work a driver run performed. The distinction that
// matters for the broadcast-vs-replay comparison is StreamItemsRead (reads
// of the underlying stream) versus ItemsDelivered (callback deliveries to
// estimator copies): replay needs one stream read per delivery, broadcast
// amortizes one read across all copies of a pass. Every field is a count
// of work, never a time: Workers and Batches depend on the worker count
// (GOMAXPROCS by default), the rest only on the copies and the stream.
type DriverStats struct {
	// Copies is the number of estimator copies driven.
	Copies int
	// Passes is the maximum pass count across copies (the number of
	// stream traversals the broadcast driver performs).
	Passes int
	// StreamItemsRead counts items read from the underlying stream.
	StreamItemsRead int64
	// ItemsDelivered counts items delivered to estimator callbacks,
	// summed over copies.
	ItemsDelivered int64
	// Batches counts fan-out windows iterated, summed over workers.
	Batches int64
	// Workers is the largest worker count used in any pass, after
	// clamping to the number of active copies.
	Workers int
}

// Merge accumulates other into s (peaks by max, counters by sum).
func (s *DriverStats) Merge(other DriverStats) {
	s.Copies += other.Copies
	if other.Passes > s.Passes {
		s.Passes = other.Passes
	}
	s.StreamItemsRead += other.StreamItemsRead
	s.ItemsDelivered += other.ItemsDelivered
	s.Batches += other.Batches
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
}

// RunBroadcast drives every estimator over s reading the stream once per
// pass (not once per copy per pass). Results are identical to calling Run
// on each estimator separately. Copies may disagree on pass count; each
// copy participates in exactly its own first Passes() passes.
func RunBroadcast(s *Stream, ests []Estimator) {
	RunBroadcastConfig(s, ests, BroadcastConfig{})
}

// RunBroadcastConfig is RunBroadcast with explicit tuning knobs; it returns
// the driver counters for the run.
func RunBroadcastConfig(s *Stream, ests []Estimator, cfg BroadcastConfig) DriverStats {
	// context.Background never fires, so the context variant cannot fail.
	st, _ := RunBroadcastConfigContext(context.Background(), s, ests, cfg)
	return st
}

// RunBroadcastContext is RunBroadcast with cooperative cancellation (see
// RunBroadcastConfigContext).
func RunBroadcastContext(ctx context.Context, s *Stream, ests []Estimator) (DriverStats, error) {
	return RunBroadcastConfigContext(ctx, s, ests, BroadcastConfig{})
}

// RunBroadcastConfigContext is RunBroadcastConfig with cooperative
// cancellation. Cancellation is polled between passes and once per chunk
// inside a pass — never per item — so a never-firing context costs nothing
// on the fan-out hot path. On cancellation every worker stops at its next
// chunk boundary and the call returns ctx.Err() with the counters
// accumulated so far; the estimators' state is unspecified. No goroutines
// outlive the call either way.
func RunBroadcastConfigContext(ctx context.Context, s *Stream, ests []Estimator, cfg BroadcastConfig) (DriverStats, error) {
	if len(ests) == 0 {
		return DriverStats{}, ctx.Err()
	}
	cfg = cfg.withDefaults()
	return drive(ctx, sameStream(s), algorithms(ests), cfg.Workers, cfg.Window, teleForDriver("broadcast"))
}

// MedianBroadcast drives the copies with the broadcast driver and returns
// the median estimate, the summed peak space, and the driver counters —
// the single-traversal counterpart of MedianParallel's replay mode.
func MedianBroadcast(s *Stream, copies []Estimator) (estimate float64, spaceWords int64, st DriverStats) {
	// context.Background never fires, so the context variant cannot fail.
	estimate, spaceWords, st, _ = MedianBroadcastContext(context.Background(), s, copies)
	return estimate, spaceWords, st
}

// MedianBroadcastContext is MedianBroadcast with cooperative cancellation.
// On cancellation it returns ctx.Err() with zero estimate and space — the
// copies' state is unspecified after an aborted run — plus the driver
// counters accumulated before the abort.
func MedianBroadcastContext(ctx context.Context, s *Stream, copies []Estimator) (estimate float64, spaceWords int64, st DriverStats, err error) {
	st, err = RunBroadcastContext(ctx, s, copies)
	if err != nil {
		return 0, 0, st, err
	}
	estimate, spaceWords = MedianOf(copies)
	return estimate, spaceWords, st, nil
}

// MedianOf reads the median estimate and summed peak space of copies that
// have completed their run.
func MedianOf(copies []Estimator) (estimate float64, spaceWords int64) {
	xs := make([]float64, len(copies))
	var sp int64
	for i, c := range copies {
		xs[i] = c.Estimate()
		sp += c.SpaceWords()
	}
	return stats.Median(xs), sp
}
