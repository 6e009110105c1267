package stream

import (
	"fmt"
	"reflect"
	"testing"

	"adjstream/internal/graph"
)

// tracer records the full callback sequence it observes, so broadcast runs
// can be compared event-for-event against sequential Run. It never calls
// into testing.T: broadcast invokes it from worker goroutines.
type tracer struct {
	passes int
	events []string
}

func (r *tracer) Passes() int         { return r.passes }
func (r *tracer) StartPass(p int)     { r.events = append(r.events, fmt.Sprintf("P%d", p)) }
func (r *tracer) EndPass(p int)       { r.events = append(r.events, fmt.Sprintf("p%d", p)) }
func (r *tracer) StartList(v graph.V) { r.events = append(r.events, fmt.Sprintf("L%d", v)) }
func (r *tracer) EndList(v graph.V)   { r.events = append(r.events, fmt.Sprintf("l%d", v)) }
func (r *tracer) Edge(o, n graph.V)   { r.events = append(r.events, fmt.Sprintf("e%d-%d", o, n)) }

// sumEstimator is a deterministic estimator: its estimate hashes the exact
// item sequence it saw (order-sensitive), so broadcast-vs-sequential
// equality of estimates implies equality of the delivered streams.
type sumEstimator struct {
	tracer
	acc float64
}

func (e *sumEstimator) Edge(o, n graph.V) {
	e.acc = e.acc*31 + float64(o)*2 + float64(n)
}

func (e *sumEstimator) Estimate() float64 { return e.acc }
func (e *sumEstimator) SpaceWords() int64 { return 1 }

func singleEdgeStream(t *testing.T) *Stream {
	t.Helper()
	s, err := FromItems([]Item{{Owner: 1, Nbr: 2}, {Owner: 2, Nbr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func emptyStream(t *testing.T) *Stream {
	t.Helper()
	s, err := FromItems(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBroadcastTraceMatchesSequential checks, event for event, that every
// copy sees exactly the callback sequence sequential Run produces — across
// copy counts, windows, and worker-pool sizes, including windows that
// split adjacency lists mid-list.
func TestBroadcastTraceMatchesSequential(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	s := Random(g, 3)
	want := &tracer{passes: 2}
	Run(s, want)
	for _, k := range []int{1, 2, 7, 16} {
		for _, cfg := range []BroadcastConfig{
			{},
			{Window: 1},
			{Window: 3, Workers: 2},
			{Window: s.Len(), Workers: 1},
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

// dummyEstimate upgrades a tracer to an Estimator.
type dummyEstimate struct{}

func (dummyEstimate) Estimate() float64 { return 0 }
func (dummyEstimate) SpaceWords() int64 { return 0 }

func TestBroadcastEstimatesMatchSequential(t *testing.T) {
	g := randomGraph(40, 0.15, 9)
	s := Random(g, 7)
	const k = 12
	seq := make([]*sumEstimator, k)
	par := make([]Estimator, k)
	for i := 0; i < k; i++ {
		seq[i] = &sumEstimator{tracer: tracer{passes: 2}}
		e := &sumEstimator{tracer: tracer{passes: 2}}
		par[i] = e
		Run(s, seq[i])
	}
	RunBroadcast(s, par)
	for i := 0; i < k; i++ {
		if got, want := par[i].Estimate(), seq[i].Estimate(); got != want {
			t.Fatalf("copy %d: broadcast estimate %v != sequential %v", i, got, want)
		}
	}
}

func TestBroadcastEmptyStream(t *testing.T) {
	s := emptyStream(t)
	tr := &tracer{passes: 3}
	st := RunBroadcastConfig(s, []Estimator{struct {
		*tracer
		dummyEstimate
	}{tr, dummyEstimate{}}}, BroadcastConfig{})
	want := []string{"P0", "p0", "P1", "p1", "P2", "p2"}
	if !reflect.DeepEqual(tr.events, want) {
		t.Fatalf("events = %v, want %v", tr.events, want)
	}
	if st.StreamItemsRead != 0 || st.ItemsDelivered != 0 || st.Passes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBroadcastSingleEdgeStream(t *testing.T) {
	s := singleEdgeStream(t)
	want := &tracer{passes: 2}
	Run(s, want)
	tr := &tracer{passes: 2}
	RunBroadcast(s, []Estimator{struct {
		*tracer
		dummyEstimate
	}{tr, dummyEstimate{}}})
	if !reflect.DeepEqual(tr.events, want.events) {
		t.Fatalf("events = %v, want %v", tr.events, want.events)
	}
}

func TestBroadcastNoEstimators(t *testing.T) {
	s := singleEdgeStream(t)
	st := RunBroadcastConfig(s, nil, BroadcastConfig{})
	if st != (DriverStats{}) {
		t.Fatalf("stats = %+v, want zero", st)
	}
}

// TestBroadcastMixedPassCounts drives copies that disagree on pass count:
// each copy must see exactly its own passes, and only the max pass count of
// stream traversals may be performed.
func TestBroadcastMixedPassCounts(t *testing.T) {
	g := triangleGraph()
	s := Sorted(g)
	one := &tracer{passes: 1}
	three := &tracer{passes: 3}
	st := RunBroadcastConfig(s, []Estimator{
		struct {
			*tracer
			dummyEstimate
		}{one, dummyEstimate{}},
		struct {
			*tracer
			dummyEstimate
		}{three, dummyEstimate{}},
	}, BroadcastConfig{})
	wantOne := &tracer{passes: 1}
	Run(s, wantOne)
	wantThree := &tracer{passes: 3}
	Run(s, wantThree)
	if !reflect.DeepEqual(one.events, wantOne.events) {
		t.Fatalf("1-pass copy saw %v, want %v", one.events, wantOne.events)
	}
	if !reflect.DeepEqual(three.events, wantThree.events) {
		t.Fatalf("3-pass copy saw %v, want %v", three.events, wantThree.events)
	}
	if st.Passes != 3 {
		t.Fatalf("Passes = %d, want 3", st.Passes)
	}
	// Pass 0 read is shared by both copies; passes 1 and 2 serve only the
	// 3-pass copy.
	if want := int64(3 * s.Len()); st.StreamItemsRead != want {
		t.Fatalf("StreamItemsRead = %d, want %d", st.StreamItemsRead, want)
	}
	if want := int64(4 * s.Len()); st.ItemsDelivered != want {
		t.Fatalf("ItemsDelivered = %d, want %d", st.ItemsDelivered, want)
	}
}

// TestBroadcastCountersBeatReplay is the acceptance check: at k = 32 the
// broadcast driver must perform at least 2× fewer stream-item reads than
// the replay driver on the same copies.
func TestBroadcastCountersBeatReplay(t *testing.T) {
	g := randomGraph(50, 0.2, 4)
	s := Random(g, 1)
	const k = 32
	mk := func() []Estimator {
		ests := make([]Estimator, k)
		for i := range ests {
			ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
		}
		return ests
	}
	broadcast := RunBroadcastConfig(s, mk(), BroadcastConfig{})
	replay := ReplayStats(s, mk())
	if broadcast.StreamItemsRead*2 > replay.StreamItemsRead {
		t.Fatalf("broadcast reads %d, replay reads %d: want ≥ 2× reduction",
			broadcast.StreamItemsRead, replay.StreamItemsRead)
	}
	// Both drivers deliver every item to every copy on every pass.
	if broadcast.ItemsDelivered != replay.ItemsDelivered {
		t.Fatalf("ItemsDelivered: broadcast %d != replay %d",
			broadcast.ItemsDelivered, replay.ItemsDelivered)
	}
	if broadcast.Batches == 0 {
		t.Fatal("broadcast reported zero batches")
	}
}

// TestMedianBroadcastMatchesMedianReplay pins the two median drivers to the
// same result on deterministic copies.
func TestMedianBroadcastMatchesMedianReplay(t *testing.T) {
	g := randomGraph(35, 0.2, 6)
	s := Random(g, 2)
	mk := func() []Estimator {
		ests := make([]Estimator, 9)
		for i := range ests {
			ests[i] = &sumEstimator{tracer: tracer{passes: 2}, acc: float64(i)}
		}
		return ests
	}
	bEst, bSp, st := MedianBroadcast(s, mk())
	rEst, rSp := MedianReplay(s, mk())
	if bEst != rEst || bSp != rSp {
		t.Fatalf("broadcast (%v, %d) != replay (%v, %d)", bEst, bSp, rEst, rSp)
	}
	if st.Copies != 9 || st.Passes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDriverStatsMerge(t *testing.T) {
	a := DriverStats{Copies: 2, Passes: 1, StreamItemsRead: 10, ItemsDelivered: 20, Batches: 3, Workers: 2}
	b := DriverStats{Copies: 3, Passes: 2, StreamItemsRead: 5, ItemsDelivered: 15, Batches: 2, Workers: 5}
	a.Merge(b)
	want := DriverStats{Copies: 5, Passes: 2, StreamItemsRead: 15, ItemsDelivered: 35, Batches: 5, Workers: 5}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
}

// TestBroadcastRace is the -race regression test: many concurrent copies,
// small windows, more workers than cores, shared immutable stream.
func TestBroadcastRace(t *testing.T) {
	g := randomGraph(40, 0.25, 8)
	s := Random(g, 5)
	ests := make([]Estimator, 64)
	for i := range ests {
		ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
	}
	RunBroadcastConfig(s, ests, BroadcastConfig{Window: 16, Workers: 32})
	first := ests[0].Estimate()
	for i, e := range ests {
		if e.Estimate() != first {
			t.Fatalf("copy %d diverged: %v != %v", i, e.Estimate(), first)
		}
	}
}
