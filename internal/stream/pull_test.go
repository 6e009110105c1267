package stream

// Tests for the broadcast driver: trace and estimate equivalence against
// sequential Run across window/worker/copy sweeps, the Workers clamp, the item-path fallback
// counter, and the open-list carry across fabricated chunk geometries
// (empty chunks, single-item lists on chunk edges, final open lists).

import (
	"context"
	"math"
	"reflect"
	"testing"

	"adjstream/internal/graph"
	"adjstream/internal/telemetry"
)

// TestPullTraceMatchesSequential checks, event for event, that every copy
// driven by the pull executor sees exactly the callback sequence sequential
// Run produces — across copy counts, fan-out windows (including windows of
// one item and windows larger than the stream), and worker counts.
func TestPullTraceMatchesSequential(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	s := Random(g, 3)
	want := &tracer{passes: 2}
	Run(s, want)
	for _, k := range []int{1, 2, 7, 16} {
		for _, cfg := range []BroadcastConfig{
			{},
			{Window: 1},
			{Window: 3, Workers: 2},
			{Window: s.Len() + 7, Workers: 5},
			{Window: DefaultChunkItems, Workers: 64}, // clamped to k
		} {
			copies := make([]Estimator, k)
			tracers := make([]*tracer, k)
			for i := range copies {
				tr := &tracer{passes: 2}
				tracers[i] = tr
				copies[i] = struct {
					*tracer
					dummyEstimate
				}{tr, dummyEstimate{}}
			}
			RunBroadcastConfig(s, copies, cfg)
			for i, tr := range tracers {
				if !reflect.DeepEqual(tr.events, want.events) {
					t.Fatalf("k=%d cfg=%+v copy %d: trace diverges from sequential Run", k, cfg, i)
				}
			}
		}
	}
}

// TestPullMatchesSequentialEstimates runs accumulating copies through the
// broadcast driver at several windows and worker counts and through
// sequential Run; the order-sensitive accumulators must agree bit-for-bit.
func TestPullMatchesSequentialEstimates(t *testing.T) {
	g := randomGraph(40, 0.15, 9)
	s := Random(g, 7)
	want := &sumEstimator{tracer: tracer{passes: 2}}
	Run(s, want)
	const k = 6
	for _, cfg := range []BroadcastConfig{
		{},
		{Window: 5, Workers: 3},
		{Window: 1, Workers: 2},
		{Window: 17, Workers: 2},
	} {
		ests := make([]Estimator, k)
		for i := range ests {
			ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
		}
		RunBroadcastConfig(s, ests, cfg)
		for i, e := range ests {
			if e.Estimate() != want.Estimate() {
				t.Fatalf("cfg=%+v copy %d: estimate %v != sequential %v", cfg, i, e.Estimate(), want.Estimate())
			}
		}
	}
}

// TestBroadcastWorkersClamped checks that a Workers request beyond the copy
// count is clamped to it — no idle workers — reported through
// DriverStats.Workers.
func TestBroadcastWorkersClamped(t *testing.T) {
	g := randomGraph(25, 0.2, 1)
	s := Random(g, 2)
	mk := func(k int) []Estimator {
		ests := make([]Estimator, k)
		for i := range ests {
			ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
		}
		return ests
	}
	for _, tc := range []struct {
		cfg    BroadcastConfig
		copies int
		want   int
	}{
		{BroadcastConfig{Workers: 8}, 3, 3},
		{BroadcastConfig{Workers: 2}, 3, 2},
		{BroadcastConfig{Workers: 8}, 5, 5},
		{BroadcastConfig{Workers: 1}, 3, 1},
	} {
		st := RunBroadcastConfig(s, mk(tc.copies), tc.cfg)
		if st.Workers != tc.want {
			t.Errorf("cfg=%+v copies=%d: Workers = %d, want %d", tc.cfg, tc.copies, st.Workers, tc.want)
		}
	}
}

// TestItemPathFallbackCounter checks that runs over a stream without
// columnar chunks (ids beyond uint32) tick the global fallback counter —
// once per run, on the sequential drivers and the broadcast driver — and
// that chunked streams never do.
func TestItemPathFallbackCounter(t *testing.T) {
	defer telemetry.Disable()
	r := telemetry.Enable()
	r.Reset()
	big := graph.V(math.MaxUint32) + 1
	s, err := FromItems([]Item{{Owner: 1, Nbr: big}, {Owner: big, Nbr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Chunks() != nil {
		t.Fatal("stream with an id beyond uint32 has a columnar form")
	}
	const name = "stream.driver.item_path_fallbacks"

	Run(s, &sumEstimator{tracer: tracer{passes: 2}})
	if got := r.Snapshot()[name]; got != 1 {
		t.Fatalf("after sequential run: %s = %v, want 1", name, got)
	}
	RunBroadcastConfig(s, []Estimator{&sumEstimator{tracer: tracer{passes: 2}}}, BroadcastConfig{})
	if got := r.Snapshot()[name]; got != 2 {
		t.Fatalf("after pull run: %s = %v, want 2", name, got)
	}
	if err := RunSequentialContext(context.Background(), s, []Estimator{&sumEstimator{tracer: tracer{passes: 2}}, &sumEstimator{tracer: tracer{passes: 2}}}); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot()[name]; got != 3 {
		t.Fatalf("after multi-copy sequential run: %s = %v, want 3", name, got)
	}

	chunked := Random(randomGraph(10, 0.4, 2), 1)
	Run(chunked, &sumEstimator{tracer: tracer{passes: 2}})
	RunBroadcastConfig(chunked, []Estimator{&sumEstimator{tracer: tracer{passes: 2}}}, BroadcastConfig{})
	if got := r.Snapshot()[name]; got != 3 {
		t.Fatalf("chunked runs moved the fallback counter: %s = %v, want 3", name, got)
	}
}

// chunkedStream rebuilds s's columnar form with a custom chunk size and an
// optional sprinkling of empty chunks, so the drivers' list-cursor handling
// can be exercised on geometries the default 1024-item chunking never
// produces: single-item lists on chunk edges, lists spanning many chunks,
// and chunks with no items at all.
func chunkedStream(t *testing.T, s *Stream, chunkItems int, emptyEvery int) *Stream {
	t.Helper()
	chunks := buildChunks(s.Items(), chunkItems)
	if chunks == nil {
		t.Fatal("stream is not chunkable")
	}
	if emptyEvery > 0 {
		withEmpty := make([]Chunk, 0, 2*len(chunks))
		for i, c := range chunks {
			if i%emptyEvery == 0 {
				withEmpty = append(withEmpty, Chunk{})
			}
			withEmpty = append(withEmpty, c)
		}
		chunks = append(withEmpty, Chunk{})
	}
	return &Stream{
		chunks: chunks,
		n:      s.Len(),
		lists:  s.Lists(),
		m:      s.M(),
		items:  s.Items(),
	}
}

// TestCursorAcrossChunkBoundaries drives every driver over fabricated chunk
// geometries — chunk size one (each list straddles chunk edges; single-item
// lists occupy exactly one chunk), size two, size three with interleaved
// empty chunks — and checks the delivered trace and an order-sensitive
// accumulator against the canonical sequential run, including the close of
// the final open list.
func TestCursorAcrossChunkBoundaries(t *testing.T) {
	// A path plus a pendant: list 2 spans chunks at size 1, lists 1 and 4
	// are single-item lists landing exactly on chunk edges.
	items := []Item{
		{Owner: 1, Nbr: 2},
		{Owner: 2, Nbr: 1}, {Owner: 2, Nbr: 3}, {Owner: 2, Nbr: 4},
		{Owner: 3, Nbr: 2},
		{Owner: 4, Nbr: 2},
	}
	base, err := FromItems(items)
	if err != nil {
		t.Fatal(err)
	}
	want := &tracer{passes: 2}
	Run(base, struct {
		*tracer
		dummyEstimate
	}{want, dummyEstimate{}})
	wantSum := &sumEstimator{tracer: tracer{passes: 2}}
	Run(base, wantSum)

	for _, geo := range []struct {
		name       string
		chunkItems int
		emptyEvery int
	}{
		{"size1", 1, 0},
		{"size2", 2, 0},
		{"size3-empties", 3, 1},
		{"size1-empties", 1, 2},
	} {
		t.Run(geo.name, func(t *testing.T) {
			s := chunkedStream(t, base, geo.chunkItems, geo.emptyEvery)
			drivers := []struct {
				name string
				run  func(e Estimator)
			}{
				{"sequential", func(e Estimator) { Run(s, e) }},
				{"pull", func(e Estimator) { RunBroadcastConfig(s, []Estimator{e}, BroadcastConfig{Window: 2}) }},
				{"pull-window1", func(e Estimator) { RunBroadcastConfig(s, []Estimator{e}, BroadcastConfig{Window: 1}) }},
			}
			for _, d := range drivers {
				tr := &tracer{passes: 2}
				d.run(struct {
					*tracer
					dummyEstimate
				}{tr, dummyEstimate{}})
				if !reflect.DeepEqual(tr.events, want.events) {
					t.Errorf("%s: trace diverges\n got %v\nwant %v", d.name, tr.events, want.events)
				}
				se := &sumEstimator{tracer: tracer{passes: 2}}
				d.run(se)
				if se.Estimate() != wantSum.Estimate() {
					t.Errorf("%s: estimate %v != %v", d.name, se.Estimate(), wantSum.Estimate())
				}
			}
		})
	}
}

// TestPullPassSkewReported checks that a multi-worker pull run reports the
// worker count it actually used. The per-pass skew itself is telemetry
// only (see TestDriverTelemetry).
func TestPullPassSkewReported(t *testing.T) {
	g := randomGraph(40, 0.2, 4)
	s := Random(g, 5)
	ests := make([]Estimator, 8)
	for i := range ests {
		ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
	}
	st := RunBroadcastConfig(s, ests, BroadcastConfig{Workers: 4})
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
}
