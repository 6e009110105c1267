package stream

// Benchmarks comparing the replay and broadcast drivers at k independent
// copies over the same stream. The quantity at stake is stream-item reads:
// replay performs k·passes·2m, broadcast passes·2m. Reported metrics:
//
//	reads/op — stream items read from the underlying stream per run
//	read-x   — replay reads divided by broadcast reads (broadcast benches)

import (
	"strconv"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
)

func benchStream(b *testing.B) *Stream {
	b.Helper()
	g, err := gen.ErdosRenyi(500, 0.05, 9)
	if err != nil {
		b.Fatal(err)
	}
	return Random(g, 3)
}

// benchEstimator is the benchmark workload: an order-sensitive rolling hash
// with a per-item cost small enough that driver overhead dominates — what
// these benchmarks are meant to measure (sumEstimator's tracer would spend
// the budget on fmt.Sprintf instead).
type benchEstimator struct {
	passes int
	acc    uint64
}

func (e *benchEstimator) Passes() int         { return e.passes }
func (e *benchEstimator) StartPass(p int)     {}
func (e *benchEstimator) StartList(v graph.V) {}
func (e *benchEstimator) EndList(v graph.V)   {}
func (e *benchEstimator) EndPass(p int)       {}
func (e *benchEstimator) Estimate() float64   { return float64(e.acc) }
func (e *benchEstimator) SpaceWords() int64   { return 1 }
func (e *benchEstimator) Edge(o, n graph.V) {
	e.acc = e.acc*31 + uint64(o)*2 + uint64(n)
}

func benchCopies(k int) []Estimator {
	ests := make([]Estimator, k)
	for i := range ests {
		ests[i] = &benchEstimator{passes: 2}
	}
	return ests
}

func benchmarkReplay(b *testing.B, k int) {
	s := benchStream(b)
	b.ResetTimer()
	var reads int64
	for i := 0; i < b.N; i++ {
		ests := benchCopies(k)
		RunParallel(s, ests)
		reads += ReplayStats(s, ests).StreamItemsRead
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}

// benchmarkBroadcast times the broadcast driver over k copies of the toy
// estimator, each fed the item callbacks one window at a time.
// BenchmarkBroadcastK32 is a bench-gate key.
func benchmarkBroadcast(b *testing.B, k int) {
	s := benchStream(b)
	b.ResetTimer()
	var reads, replayReads int64
	for i := 0; i < b.N; i++ {
		ests := benchCopies(k)
		st := RunBroadcastConfig(s, ests, BroadcastConfig{})
		reads += st.StreamItemsRead
		replayReads += ReplayStats(s, ests).StreamItemsRead
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(replayReads)/float64(reads), "read-x")
}

func BenchmarkReplayK8(b *testing.B)      { benchmarkReplay(b, 8) }
func BenchmarkReplayK32(b *testing.B)     { benchmarkReplay(b, 32) }
func BenchmarkReplayK128(b *testing.B)    { benchmarkReplay(b, 128) }
func BenchmarkBroadcastK8(b *testing.B)   { benchmarkBroadcast(b, 8) }
func BenchmarkBroadcastK32(b *testing.B)  { benchmarkBroadcast(b, 32) }
func BenchmarkBroadcastK128(b *testing.B) { benchmarkBroadcast(b, 128) }

// BenchmarkRunBatchPath times the sequential driver on one estimator: whole
// chunks delivered as item callbacks, one interface call per item. The name
// is kept from when the sequential driver had a columnar batch protocol, so
// the benchmark history lines up.
func BenchmarkRunBatchPath(b *testing.B) {
	s := benchStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(s, &benchEstimator{passes: 2})
	}
}

// BenchmarkBroadcastPullWindow sweeps the pull executor's fan-out window at
// k = 32. Small windows keep several copies' independent dependency chains
// in flight at once; large windows degenerate toward copy-at-a-time.
func BenchmarkBroadcastPullWindow(b *testing.B) {
	for _, w := range []int{8, 32, 128, 1024} {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			s := benchStream(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RunBroadcastConfig(s, benchCopies(32), BroadcastConfig{Window: w})
			}
		})
	}
}
