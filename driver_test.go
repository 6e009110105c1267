package adjstream

// Equality tests for the broadcast driver: every estimator type in
// internal/core and internal/baseline, driven with fixed seeds, must
// produce estimates and space counts identical to sequential stream.Run.
// This is the contract that lets the exp harness and the public API switch
// drivers without perturbing a single reported number.

import (
	"testing"

	"adjstream/internal/baseline"
	"adjstream/internal/core"
	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// estimatorRoster enumerates every Estimator constructor in internal/core
// and internal/baseline with a mid-size deterministic configuration.
func estimatorRoster(m int64) []struct {
	name string
	mk   func(seed uint64) (stream.Estimator, error)
} {
	size := int(m / 4)
	return []struct {
		name string
		mk   func(seed uint64) (stream.Estimator, error)
	}{
		{"core.TwoPassTriangle", func(seed uint64) (stream.Estimator, error) {
			return core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: size, PairCap: 4 * size, Seed: seed})
		}},
		{"core.ThreePassTriangle", func(seed uint64) (stream.Estimator, error) {
			return core.NewThreePassTriangle(core.TriangleConfig{SampleSize: size, Seed: seed})
		}},
		{"core.NaiveTwoPass", func(seed uint64) (stream.Estimator, error) {
			return core.NewNaiveTwoPass(core.TriangleConfig{SampleSize: size, Seed: seed})
		}},
		{"core.TwoPassFourCycle", func(seed uint64) (stream.Estimator, error) {
			return core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: size, WedgeCap: 4 * size, Seed: seed})
		}},
		{"core.AdaptiveTwoPassTriangle", func(seed uint64) (stream.Estimator, error) {
			return core.NewAdaptiveTwoPassTriangle(core.AdaptiveConfig{InitialSample: size, Seed: seed})
		}},
		{"baseline.OnePassTriangle", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewOnePassTriangle(baseline.Config{SampleSize: size, Seed: seed})
		}},
		{"baseline.WedgeSampler", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewWedgeSampler(baseline.Config{SampleProb: 0.5, WedgeCap: 1 << 16, Seed: seed})
		}},
		{"baseline.OnePassFourCycle", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewOnePassFourCycle(baseline.Config{SampleSize: size, Seed: seed})
		}},
		{"baseline.ExactStream", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewExactStream(3)
		}},
		{"baseline.LocalTriangles", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewLocalTriangles(0.5, seed)
		}},
	}
}

func TestBroadcastMatchesSequentialAllEstimators(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 5)
	const k = 8
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			seq := make([]stream.Estimator, k)
			par := make([]stream.Estimator, k)
			for i := 0; i < k; i++ {
				seed := uint64(i)*0x9e37 + 101
				a, err := tc.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := tc.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				stream.Run(s, a)
				seq[i], par[i] = a, b
			}
			st := stream.RunBroadcastConfig(s, par, stream.BroadcastConfig{Window: 37, Workers: 2})
			for i := 0; i < k; i++ {
				if got, want := par[i].Estimate(), seq[i].Estimate(); got != want {
					t.Errorf("copy %d: broadcast estimate %v != sequential %v", i, got, want)
				}
				if got, want := par[i].SpaceWords(), seq[i].SpaceWords(); got != want {
					t.Errorf("copy %d: broadcast space %d != sequential %d", i, got, want)
				}
			}
			if want := int64(st.Passes) * int64(s.Len()); st.StreamItemsRead != want {
				t.Errorf("StreamItemsRead = %d, want %d (one read per pass)", st.StreamItemsRead, want)
			}
		})
	}
}

// TestEstimateDriversAgree checks the public API: sequential, parallel
// broadcast, and parallel replay runs of the same Options produce identical
// results, and the broadcast result carries meaningful driver counters.
func TestEstimateDriversAgree(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 0.12, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 9)
	base := Options{
		Algorithm:  AlgoTwoPassTriangle,
		SampleProb: 0.3,
		Copies:     9,
		Seed:       7,
	}
	sequential, err := Estimate(s, base)
	if err != nil {
		t.Fatal(err)
	}
	broadcast := base
	broadcast.Parallel = true
	resB, err := Estimate(s, broadcast)
	if err != nil {
		t.Fatal(err)
	}
	replay := base
	replay.Parallel = true
	replay.Driver = DriverReplay
	resR, err := Estimate(s, replay)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Estimate != sequential.Estimate || resR.Estimate != sequential.Estimate {
		t.Fatalf("estimates diverge: sequential %v, broadcast %v, replay %v",
			sequential.Estimate, resB.Estimate, resR.Estimate)
	}
	if resB.SpaceWords != sequential.SpaceWords || resR.SpaceWords != sequential.SpaceWords {
		t.Fatalf("space diverges: sequential %d, broadcast %d, replay %d",
			sequential.SpaceWords, resB.SpaceWords, resR.SpaceWords)
	}
	if resB.Driver != DriverBroadcast || resR.Driver != DriverReplay {
		t.Fatalf("drivers = %q, %q", resB.Driver, resR.Driver)
	}
	// 9 two-pass copies: broadcast reads 2·2m items, replay 9·2·2m.
	if resB.DriverStats.StreamItemsRead*2 > resR.DriverStats.StreamItemsRead {
		t.Fatalf("broadcast reads %d vs replay %d: want ≥ 2× fewer",
			resB.DriverStats.StreamItemsRead, resR.DriverStats.StreamItemsRead)
	}
}

func TestEstimateRejectsUnknownDriver(t *testing.T) {
	g, err := gen.ErdosRenyi(20, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Estimate(stream.Sorted(g), Options{
		Algorithm:  AlgoTwoPassTriangle,
		SampleProb: 0.5,
		Copies:     3,
		Parallel:   true,
		Driver:     "bogus",
	})
	if err == nil {
		t.Fatal("expected error for unknown driver")
	}
}
