package adjstream

// Batch-path equality tests: the columnar EdgeBatch fast path must be
// bit-identical to the legacy item-at-a-time path for every estimator in
// internal/core and internal/baseline under every driver. The item path is
// obtained by hiding EdgeBatch behind stream.ItemOnly; any divergence in
// estimate or space therefore isolates a bug in an EdgeBatch loop or in a
// driver's batch dispatch.

import (
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// batchEquivStream returns a fixed-seed stream that spans multiple chunks
// (len > DefaultChunkItems), so EdgeBatch loops cross chunk boundaries
// mid-adjacency-list.
func batchEquivStream(t *testing.T) *stream.Stream {
	t.Helper()
	g, err := gen.ErdosRenyi(120, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 5)
	if s.Chunks() == nil {
		t.Fatal("stream unexpectedly has no columnar form")
	}
	if s.Len() <= stream.DefaultChunkItems {
		t.Fatalf("stream has %d items; want > %d to cross chunk boundaries", s.Len(), stream.DefaultChunkItems)
	}
	return s
}

// TestBatchPathMatchesItemPathSequential pins the sequential driver: for
// each estimator, Run on the bare estimator (batch path) equals Run on the
// ItemOnly wrapper (item path).
func TestBatchPathMatchesItemPathSequential(t *testing.T) {
	s := batchEquivStream(t)
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 1789
			batch, err := tc.mk(seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := batch.(stream.BatchAlgorithm); !ok {
				t.Fatalf("%s does not implement stream.BatchAlgorithm", tc.name)
			}
			item, err := tc.mk(seed)
			if err != nil {
				t.Fatal(err)
			}
			stream.Run(s, batch)
			stream.Run(s, stream.ItemOnly(item))
			if got, want := batch.Estimate(), item.Estimate(); got != want {
				t.Errorf("batch estimate %v != item estimate %v", got, want)
			}
			if got, want := batch.SpaceWords(), item.SpaceWords(); got != want {
				t.Errorf("batch space %d != item space %d", got, want)
			}
		})
	}
}

// TestBatchPathMatchesItemPathBroadcast pins the broadcast driver at both
// the default config and an odd window that splits lists mid-window (so
// run offsets are rebased at odd positions), against the sequential item
// path.
func TestBatchPathMatchesItemPathBroadcast(t *testing.T) {
	s := batchEquivStream(t)
	cfgs := []stream.BroadcastConfig{
		{},
		{Window: 37, Workers: 2},
	}
	const k = 4
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 271828
			ref, err := tc.mk(seed)
			if err != nil {
				t.Fatal(err)
			}
			stream.Run(s, stream.ItemOnly(ref))
			for _, cfg := range cfgs {
				batched := make([]stream.Estimator, k)
				itemized := make([]stream.Estimator, k)
				for i := 0; i < k; i++ {
					a, err := tc.mk(seed)
					if err != nil {
						t.Fatal(err)
					}
					b, err := tc.mk(seed)
					if err != nil {
						t.Fatal(err)
					}
					batched[i] = a
					itemized[i] = stream.ItemOnly(b)
				}
				stream.RunBroadcastConfig(s, batched, cfg)
				stream.RunBroadcastConfig(s, itemized, cfg)
				for i := 0; i < k; i++ {
					if got, want := batched[i].Estimate(), ref.Estimate(); got != want {
						t.Errorf("cfg=%+v copy %d: batch broadcast estimate %v != sequential item %v", cfg, i, got, want)
					}
					if got, want := itemized[i].Estimate(), ref.Estimate(); got != want {
						t.Errorf("cfg=%+v copy %d: itemized broadcast estimate %v != sequential item %v", cfg, i, got, want)
					}
					if got, want := batched[i].SpaceWords(), ref.SpaceWords(); got != want {
						t.Errorf("cfg=%+v copy %d: batch broadcast space %d != sequential item %d", cfg, i, got, want)
					}
				}
			}
		})
	}
}

// TestBatchPathMatchesItemPathReplay pins the parallel replay driver, whose
// workers run the sequential pass loop (and hence the batch dispatch) per
// copy.
func TestBatchPathMatchesItemPathReplay(t *testing.T) {
	s := batchEquivStream(t)
	const k = 3
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 31415
			ref, err := tc.mk(seed)
			if err != nil {
				t.Fatal(err)
			}
			stream.Run(s, stream.ItemOnly(ref))
			copies := make([]stream.Estimator, k)
			for i := 0; i < k; i++ {
				a, err := tc.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				copies[i] = a
			}
			stream.RunParallel(s, copies)
			for i := 0; i < k; i++ {
				if got, want := copies[i].Estimate(), ref.Estimate(); got != want {
					t.Errorf("copy %d: replay batch estimate %v != sequential item %v", i, got, want)
				}
				if got, want := copies[i].SpaceWords(), ref.SpaceWords(); got != want {
					t.Errorf("copy %d: replay batch space %d != sequential item %d", i, got, want)
				}
			}
		})
	}
}
