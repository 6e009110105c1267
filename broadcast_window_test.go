package adjstream

// Window-boundary equality test for the broadcast driver: on a stream long
// enough to span several columnar chunks, every estimator in internal/core
// and internal/baseline must give the same estimate and space under
// RunBroadcastConfig as under sequential stream.Run, both at the default
// config and at an odd window that splits adjacency lists mid-window.

import (
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// multiChunkStream returns a fixed-seed stream with more than
// DefaultChunkItems items, so windows cross chunk boundaries
// mid-adjacency-list.
func multiChunkStream(t *testing.T) *stream.Stream {
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

// TestBatchPathMatchesItemPathBroadcast pins the broadcast driver, whose
// window walk hands every copy the same items, against the sequential
// driver for each estimator.
func TestBatchPathMatchesItemPathBroadcast(t *testing.T) {
	s := multiChunkStream(t)
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
			stream.Run(s, ref)
			for _, cfg := range cfgs {
				copies := make([]stream.Estimator, k)
				for i := 0; i < k; i++ {
					if copies[i], err = tc.mk(seed); err != nil {
						t.Fatal(err)
					}
				}
				stream.RunBroadcastConfig(s, copies, cfg)
				for i := 0; i < k; i++ {
					if got, want := copies[i].Estimate(), ref.Estimate(); got != want {
						t.Errorf("cfg=%+v copy %d: broadcast estimate %v != sequential %v", cfg, i, got, want)
					}
					if got, want := copies[i].SpaceWords(), ref.SpaceWords(); got != want {
						t.Errorf("cfg=%+v copy %d: broadcast space %d != sequential %d", cfg, i, got, want)
					}
				}
			}
		})
	}
}
