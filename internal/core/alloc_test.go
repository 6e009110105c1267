package core

import (
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// The kernels keep their per-item state in arenas and flat tables sized
// at construction, so a run allocates only when an arena or table doubles
// (logarithmically many times) and at pass ends — never per item. The
// guard counts the allocations of one stream.Run per fresh estimator
// (construction excluded) against the item visits it makes.
func TestKernelAllocsPerItem(t *testing.T) {
	g, err := gen.ErdosRenyi(800, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 1)
	tcfg := TriangleConfig{SampleSize: 512, Seed: 1}
	kernels := []struct {
		name string
		mk   func() (stream.Estimator, error)
	}{
		{"twopass-triangle", func() (stream.Estimator, error) { return NewTwoPassTriangle(tcfg) }},
		{"naive-twopass", func() (stream.Estimator, error) { return NewNaiveTwoPass(tcfg) }},
		{"threepass-triangle", func() (stream.Estimator, error) { return NewThreePassTriangle(tcfg) }},
		{"twopass-fourcycle", func() (stream.Estimator, error) {
			return NewTwoPassFourCycle(FourCycleConfig{SampleSize: 512, Seed: 1})
		}},
	}
	const runs = 3
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			// AllocsPerRun calls f runs+1 times (one warm-up).
			ests := make([]stream.Estimator, runs+1)
			for i := range ests {
				if ests[i], err = k.mk(); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				stream.Run(s, ests[next])
				next++
			})
			perItem := allocs / float64(ests[0].Passes()*s.Len())
			t.Logf("%.0f allocs per run, %.5f per item visit", allocs, perItem)
			if perItem > 0.01 {
				t.Fatalf("%.4f allocs per item visit, want ≤ 0.01", perItem)
			}
		})
	}
}
