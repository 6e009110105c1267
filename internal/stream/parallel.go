package stream

import (
	"context"
	"runtime"
	"sync"
)

// RunParallel drives each estimator over s concurrently (each copy performs
// its own passes; copies are independent, so results are identical to
// sequential Run calls). Concurrency is bounded by GOMAXPROCS.
//
// This is the replay driver: every copy reads the full stream itself, so a
// run costs Σ passes(e)·Len(s) stream-item reads. RunBroadcast performs the
// same computation with one stream read per pass shared by all copies;
// RunParallel is kept as the A/B baseline (see ReplayStats for the
// counters a replay run would report).
func RunParallel(s *Stream, ests []Estimator) {
	// context.Background never fires, so RunParallelContext cannot fail.
	_ = RunParallelContext(context.Background(), s, ests)
}

// RunParallelContext is RunParallel with cooperative cancellation: every
// copy runs under ctx (each polling once per chunk, as RunContext does) and
// a cancelled ctx makes all of them abandon their current pass. It returns
// ctx.Err() if the run was cancelled — the only error a replay run can
// produce — after every copy goroutine has exited.
func RunParallelContext(ctx context.Context, s *Stream, ests []Estimator) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, e := range ests {
		wg.Add(1)
		sem <- struct{}{}
		go func(e Estimator) {
			defer wg.Done()
			defer func() { <-sem }()
			// A cancelled copy returns ctx.Err(), which is sticky and
			// reported once for the whole run below.
			_ = RunContext(ctx, s, e)
		}(e)
	}
	wg.Wait()
	return ctx.Err()
}

// ReplayStats returns the driver counters of a replay run of ests over s
// (RunParallel or per-copy Run): each copy reads the stream itself on every
// one of its passes, and every read is also a delivery. Replay does not
// fan out, so Batches and Workers are zero.
func ReplayStats(s *Stream, ests []Estimator) DriverStats {
	st := DriverStats{Copies: len(ests)}
	for _, e := range ests {
		p := e.Passes()
		if p > st.Passes {
			st.Passes = p
		}
		st.StreamItemsRead += int64(p) * int64(s.Len())
	}
	st.ItemsDelivered = st.StreamItemsRead
	return st
}

// MedianParallel runs the copies concurrently over s and returns the median
// estimate and the summed peak space — the parallel counterpart of driving
// a MedianEstimator with Run. Since the broadcast PR it uses the broadcast
// driver (one stream read per pass, fanned out to all copies); MedianReplay
// keeps the old once-per-copy replay for A/B comparison. Both produce
// identical estimates for fixed-seed copies.
func MedianParallel(s *Stream, copies []Estimator) (estimate float64, spaceWords int64) {
	estimate, spaceWords, _ = MedianBroadcast(s, copies)
	return estimate, spaceWords
}

// MedianReplay is MedianParallel on the replay driver: every copy replays
// the full stream itself (the pre-broadcast behavior).
func MedianReplay(s *Stream, copies []Estimator) (estimate float64, spaceWords int64) {
	// context.Background never fires, so the context variant cannot fail.
	estimate, spaceWords, _ = MedianReplayContext(context.Background(), s, copies)
	return estimate, spaceWords
}

// MedianReplayContext is MedianReplay with cooperative cancellation. On
// cancellation it returns ctx.Err() with zero estimate and space; the
// copies' state is unspecified after an aborted run.
func MedianReplayContext(ctx context.Context, s *Stream, copies []Estimator) (estimate float64, spaceWords int64, err error) {
	if err := RunParallelContext(ctx, s, copies); err != nil {
		return 0, 0, err
	}
	estimate, spaceWords = MedianOf(copies)
	return estimate, spaceWords, nil
}
