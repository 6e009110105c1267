package stream

import (
	"context"
	"math"
	"sync"
	"time"

	"adjstream/internal/graph"
)

// The traversal engine. Every driver except replay goes through drive, the
// one pass loop, and shardPass, the one chunk walk: sequential Run is a
// one-copy shard walked in whole chunks, and the broadcast driver shards
// its copies across workers that each walk the shared chunks in small
// windows. Replay is Run once per copy.
//
// Chunks are immutable — and often mmap-ed straight from an "adjC" file —
// so nothing moves between workers: each worker iterates Stream.Chunks()
// directly for its contiguous shard of copies. The only coordination is a
// per-pass finish barrier (the WaitGroup in pullPass).
//
// The fan-out window is the broadcast driver's second win. Fanning a whole
// 1024-item chunk to copy 1, then copy 2, ... walks each copy's serial
// dependency chain (its accumulator state) for 1024 items before
// switching. Fanning a small window instead interleaves the chains at a
// granularity the CPU's out-of-order engine can overlap: copy i+1's window
// is independent of copy i's, so their work pipelines even on a single
// core. Measured on the BroadcastK32 shape, a 32-item window is ~1.35x the
// chunk-at-a-time rate; the window is a knob (BroadcastConfig.Window)
// because the sweet spot depends on per-copy state size.

// DefaultPullWindow is the broadcast driver's fan-out window (in stream
// items) when BroadcastConfig.Window is zero. Small enough that the
// independent copies' dependency chains overlap in the out-of-order
// window, large enough that per-window loop overhead stays negligible.
const DefaultPullWindow = 32

// wholeChunks is the sequential driver's window: every copy gets each
// chunk in one window, exactly the chunks the stream stores.
const wholeChunks = math.MaxInt32

// sameStream is the pass schedule of a run whose every pass reads s.
func sameStream(s *Stream) func(int) *Stream {
	return func(int) *Stream { return s }
}

// algorithms views estimators as the Algorithms the engine drives.
func algorithms(ests []Estimator) []Algorithm {
	algs := make([]Algorithm, len(ests))
	for i, e := range ests {
		algs[i] = e
	}
	return algs
}

// drive is the pass loop. Pass p reads streamAt(p) once for the algorithms
// still active in it (Passes() > p), sharded contiguously across at most
// workers workers that walk the stream in windows of window items. ctx is
// polled between passes and, inside a pass, once per chunk; on
// cancellation the run stops there — the open list and pass are not
// closed — and drive returns ctx.Err() with the counters so far.
func drive(ctx context.Context, streamAt func(p int) *Stream, algs []Algorithm, workers, window int, tt driverTele) (DriverStats, error) {
	maxPasses := 0
	for _, a := range algs {
		if p := a.Passes(); p > maxPasses {
			maxPasses = p
		}
	}
	st := DriverStats{Copies: len(algs)}
	done := ctx.Done()
	fellBack := false
	var err error
	for p := 0; p < maxPasses && err == nil; p++ {
		if done != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		s := streamAt(p)
		if s.chunks == nil && !fellBack {
			tt.noteFallback()
			fellBack = true
		}
		active := activeIn(algs, p)
		start := tt.startPass()
		err = pullPass(ctx, s, active, p, workers, window, &st, tt)
		tt.endPass(start, int64(s.Len()), int64(s.Len())*int64(len(active)))
		st.Passes = p + 1
	}
	tt.batches.Add(st.Batches)
	if err == nil {
		tt.copies.Add(int64(len(algs)))
	}
	return st, err
}

// activeIn returns the algorithms taking part in pass p: algs itself when
// all of them do, a filtered copy otherwise.
func activeIn(algs []Algorithm, p int) []Algorithm {
	n := 0
	for _, a := range algs {
		if a.Passes() > p {
			n++
		}
	}
	if n == len(algs) {
		return algs
	}
	active := make([]Algorithm, 0, n)
	for _, a := range algs {
		if a.Passes() > p {
			active = append(active, a)
		}
	}
	return active
}

// shardResult is one worker's share of a pass.
type shardResult struct {
	delivered int64 // callback deliveries, summed over the shard
	windows   int64 // windows iterated
	wallNS    int64 // worker wall time, read only for the skew histogram
	err       error
}

// pullPass runs pass p of active over s and adds its counters to st. With
// one worker the pass runs inline on the calling goroutine; otherwise each
// worker walks s for a contiguous shard of active and the WaitGroup is the
// pass's finish barrier. Worker wall times are read only when the skew
// histogram is bound, so a disabled registry costs no clock reads.
func pullPass(ctx context.Context, s *Stream, active []Algorithm, p, workers, window int, st *DriverStats, tt driverTele) error {
	if len(active) == 0 {
		return nil
	}
	workers = min(max(workers, 1), len(active))
	st.Workers = max(st.Workers, workers)
	// One logical stream read per pass, shared by all workers.
	st.StreamItemsRead += int64(s.Len())
	if workers == 1 {
		r := shardPass(ctx, s, active, p, window)
		st.ItemsDelivered += r.delivered
		st.Batches += r.windows
		return r.err
	}
	timed := tt.skew != nil
	res := make([]shardResult, workers)
	var wg sync.WaitGroup
	for w := range res {
		lo, hi := shardBounds(len(active), workers, w)
		// The shard is copied so the caller's slice never escapes to the
		// worker goroutines (it stays on the stack for sequential runs).
		shard := append([]Algorithm(nil), active[lo:hi]...)
		wg.Add(1)
		go func(r *shardResult) {
			defer wg.Done()
			var start time.Time
			if timed {
				start = time.Now()
			}
			*r = shardPass(ctx, s, shard, p, window)
			if timed {
				r.wallNS = int64(time.Since(start))
			}
		}(&res[w])
	}
	wg.Wait()
	var err error
	minW, maxW := res[0].wallNS, res[0].wallNS
	for _, r := range res {
		st.ItemsDelivered += r.delivered
		st.Batches += r.windows
		minW, maxW = min(minW, r.wallNS), max(maxW, r.wallNS)
		if err == nil {
			err = r.err
		}
	}
	if timed {
		tt.skew.Observe(maxW - minW)
	}
	return err
}

// shardBounds splits n copies across k workers into contiguous ranges.
func shardBounds(n, k, w int) (lo, hi int) {
	lo = w * n / k
	hi = (w + 1) * n / k
	return lo, hi
}

// shardPass replays pass p to every algorithm in shard by iterating the
// chunks directly in windows of window items, copy by copy within each
// window. Each copy gets the window as item callbacks decoded from the
// columns (see feedItems), with the open list carried across windows and
// chunks; the final open list is closed before EndPass. Cancellation is
// polled per chunk.
func shardPass(ctx context.Context, s *Stream, shard []Algorithm, p, window int) (r shardResult) {
	if s.chunks == nil {
		return shardPassItems(ctx, s, shard, p, window)
	}
	for _, a := range shard {
		a.StartPass(p)
	}
	done := ctx.Done()
	var cur graph.V // owner of the open list, the last item's owner
	open := false
	for ci := range s.chunks {
		if done != nil {
			if r.err = ctx.Err(); r.err != nil {
				return r
			}
		}
		c := &s.chunks[ci]
		ri := 0
		for i := 0; i < len(c.Owners); i += window {
			j := min(i+window, len(c.Owners))
			r0 := ri
			for ri < len(c.Runs) && int(c.Runs[ri]) < j {
				ri++
			}
			owners, nbrs, runs := c.Owners[i:j], c.Nbrs[i:j], c.Runs[r0:ri]
			for _, a := range shard {
				feedItems(a, owners, nbrs, runs, i, open, cur)
			}
			cur, open = graph.V(owners[len(owners)-1]), true
			r.windows++
		}
		r.delivered += int64(len(c.Owners)) * int64(len(shard))
	}
	for _, a := range shard {
		if open {
			a.EndList(cur)
		}
		a.EndPass(p)
	}
	return r
}

// feedItems delivers one window to a as item callbacks. runs holds the
// chunk offsets of the lists starting inside the window, which begins at
// chunk offset base: at each one it closes the open list (cur, when open)
// and starts the next, and it calls Edge once per item.
func feedItems(a Algorithm, owners, nbrs []uint32, runs []int32, base int, open bool, cur graph.V) {
	nbrs = nbrs[:len(owners)] // one bounds check per window, not per item
	i := 0
	for _, r := range runs {
		off := int(r) - base
		for ; i < off; i++ {
			a.Edge(graph.V(owners[i]), graph.V(nbrs[i]))
		}
		if open {
			a.EndList(cur)
		}
		cur, open = graph.V(owners[off]), true
		a.StartList(cur)
	}
	for ; i < len(owners); i++ {
		a.Edge(graph.V(owners[i]), graph.V(nbrs[i]))
	}
}

// shardPassItems is shardPass for streams without chunks (ids beyond
// uint32): the []Item walk, cut into DefaultChunkItems-item blocks — its
// cancellation points — and windows within them, as if the rows were
// chunked.
func shardPassItems(ctx context.Context, s *Stream, shard []Algorithm, p, window int) (r shardResult) {
	for _, a := range shard {
		a.StartPass(p)
	}
	items := s.Items()
	done := ctx.Done()
	inList := false
	var cur graph.V
	for base := 0; base < len(items); base += DefaultChunkItems {
		if done != nil {
			if r.err = ctx.Err(); r.err != nil {
				return r
			}
		}
		block := items[base:min(base+DefaultChunkItems, len(items))]
		for i := 0; i < len(block); i += window {
			for _, it := range block[i:min(i+window, len(block))] {
				if !inList || it.Owner != cur {
					if inList {
						for _, a := range shard {
							a.EndList(cur)
						}
					}
					cur = it.Owner
					inList = true
					for _, a := range shard {
						a.StartList(cur)
					}
				}
				for _, a := range shard {
					a.Edge(it.Owner, it.Nbr)
				}
			}
			r.windows++
		}
		r.delivered += int64(len(block)) * int64(len(shard))
	}
	if inList {
		for _, a := range shard {
			a.EndList(cur)
		}
	}
	for _, a := range shard {
		a.EndPass(p)
	}
	return r
}
