package adjstream

// Public-API driver equivalence: for every algorithm, the broadcast driver
// (the default, at two copy counts) and the replay driver must reproduce
// the sequential median run bit for bit — estimate, space, passes and m. This is the whole-roster version of TestEstimateDriversAgree.

import (
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

func TestAllDriversBitIdentical(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 0.12, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 9)
	for _, algo := range Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			for _, v := range []struct {
				d      Driver
				copies int
			}{{DriverBroadcast, 9}, {DriverBroadcast, 4}, {DriverReplay, 9}} {
				base := Options{
					Algorithm:  algo,
					SampleSize: 64,
					PairCap:    512,
					Copies:     v.copies,
					Seed:       7,
				}
				want, err := Estimate(s, base)
				if err != nil {
					t.Fatal(err)
				}
				o := base
				o.Parallel = true
				o.Driver = v.d
				got, err := Estimate(s, o)
				if err != nil {
					t.Fatalf("%s k=%d: %v", v.d, v.copies, err)
				}
				if got.Estimate != want.Estimate || got.SpaceWords != want.SpaceWords ||
					got.Passes != want.Passes || got.M != want.M {
					t.Errorf("%s k=%d: (est %v, space %d, passes %d, m %d) != sequential (%v, %d, %d, %d)",
						v.d, v.copies, got.Estimate, got.SpaceWords, got.Passes, got.M,
						want.Estimate, want.SpaceWords, want.Passes, want.M)
				}
				if got.Driver != v.d {
					t.Errorf("result driver = %q, want %q", got.Driver, v.d)
				}
			}
		})
	}
}
