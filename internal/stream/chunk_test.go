package stream

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"adjstream/internal/graph"
)

func TestBuildChunksBoundaries(t *testing.T) {
	// Three lists of degree 3 over chunkItems = 4: list 2's run crosses the
	// first chunk boundary, so chunk 1 must open without a run at 0.
	items := []Item{
		{1, 2}, {1, 3}, {1, 4},
		{2, 1}, {2, 3}, {2, 4},
		{3, 1}, {3, 2}, {3, 4},
		{4, 1}, {4, 2}, {4, 3},
	}
	chunks := buildChunks(items, 4)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	wantRuns := [][]int32{{0, 3}, {2}, {1}}
	for i, c := range chunks {
		if len(c.Owners) != 4 || len(c.Nbrs) != 4 {
			t.Fatalf("chunk %d: columns have %d/%d items, want 4", i, len(c.Owners), len(c.Nbrs))
		}
		if !reflect.DeepEqual(c.Runs, wantRuns[i]) {
			t.Errorf("chunk %d runs = %v, want %v", i, c.Runs, wantRuns[i])
		}
	}
	if got := decodeChunks(chunks, len(items)); !reflect.DeepEqual(got, items) {
		t.Errorf("decodeChunks round trip diverged:\n got %v\nwant %v", got, items)
	}
}

func TestBuildChunksUnchunkable(t *testing.T) {
	big := Item{Owner: math.MaxUint32 + 1, Nbr: 1}
	if chunks := buildChunks([]Item{big}, 4); chunks != nil {
		t.Fatalf("got %d chunks for an id beyond uint32, want nil", len(chunks))
	}
	if chunks := buildChunks([]Item{{Owner: 1, Nbr: -2}}, 4); chunks != nil {
		t.Fatal("got chunks for a negative id, want nil")
	}
}

// TestUnchunkableStreamFallsBack drives a stream whose ids exceed uint32
// through both drivers: it has no columnar form, so both walk the rows and
// must still deliver the canonical callback sequence.
func TestUnchunkableStreamFallsBack(t *testing.T) {
	big := graphVBig()
	s, err := FromItems([]Item{{Owner: 1, Nbr: big}, {Owner: big, Nbr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Chunks() != nil {
		t.Fatal("stream with an id beyond uint32 has a columnar form")
	}
	want := []string{"P0", "L1", fmt.Sprintf("e1-%d", big), "l1",
		fmt.Sprintf("L%d", big), fmt.Sprintf("e%d-1", big), fmt.Sprintf("l%d", big), "p0"}
	seq := &tracer{passes: 1}
	Run(s, struct {
		*tracer
		dummyEstimate
	}{seq, dummyEstimate{}})
	if !reflect.DeepEqual(seq.events, want) {
		t.Errorf("sequential fallback trace %v, want %v", seq.events, want)
	}
	par := &tracer{passes: 1}
	RunBroadcast(s, []Estimator{struct {
		*tracer
		dummyEstimate
	}{par, dummyEstimate{}}})
	if !reflect.DeepEqual(par.events, want) {
		t.Errorf("broadcast fallback trace %v, want %v", par.events, want)
	}
}

// graphVBig returns an id one past the uint32 range.
func graphVBig() graph.V { return graph.V(math.MaxUint32) + 1 }

// TestChunkedStreamMultiChunk pins the chunk geometry of a stream larger
// than one chunk and that ListOrder agrees with the row-form scan.
func TestChunkedStreamMultiChunk(t *testing.T) {
	g := randomGraph(80, 0.3, 4)
	s := Random(g, 6)
	if s.Len() <= DefaultChunkItems {
		t.Fatalf("stream has %d items, want > %d", s.Len(), DefaultChunkItems)
	}
	chunks := s.Chunks()
	total, runs := 0, 0
	for _, c := range chunks {
		total += len(c.Owners)
		runs += len(c.Runs)
	}
	if total != s.Len() {
		t.Errorf("chunks hold %d items, stream has %d", total, s.Len())
	}
	if runs != s.Lists() {
		t.Errorf("chunks hold %d runs, stream has %d lists", runs, s.Lists())
	}
	var fromItems []int64
	var cur int64 = -1
	for _, it := range s.Items() {
		if int64(it.Owner) != cur {
			cur = int64(it.Owner)
			fromItems = append(fromItems, cur)
		}
	}
	order := s.ListOrder()
	if len(order) != len(fromItems) {
		t.Fatalf("ListOrder has %d entries, row scan %d", len(order), len(fromItems))
	}
	for i := range order {
		if int64(order[i]) != fromItems[i] {
			t.Fatalf("ListOrder[%d] = %d, row scan %d", i, order[i], fromItems[i])
		}
	}
}
