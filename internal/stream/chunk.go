package stream

// Columnar chunked stream representation. A Stream's canonical storage is a
// sequence of Chunks: flat little-endian-friendly []uint32 owner/neighbor
// columns plus the in-chunk offsets where a new adjacency list starts. The
// chunked form is what the drivers iterate (batch-capable algorithms get
// whole columns at a time, everything else gets the legacy item-at-a-time
// callbacks decoded from the same columns) and what the mmap-able binary
// file format (mapped.go) stores verbatim.
//
// Vertex ids are graph.V (int64) in the model but uint32 in the columns;
// streams whose ids do not fit keep only the row ([]Item) form and every
// driver transparently falls back to the item path for them.

import (
	"math"

	"adjstream/internal/graph"
)

// DefaultChunkItems is the number of items per chunk built by the in-memory
// stream constructors, and the cancellation granularity of the drivers.
const DefaultChunkItems = 1024

// Chunk is one columnar block of a stream: Owners[i]/Nbrs[i] is the i-th
// item, and Runs lists the positions where a new adjacency list begins.
// Adjacency lists may span chunks: a chunk that continues its predecessor's
// open list simply has no run at position 0.
type Chunk struct {
	// Owners holds the list-owner column.
	Owners []uint32
	// Nbrs holds the neighbor column.
	Nbrs []uint32
	// Runs holds the strictly increasing in-chunk indices at which a new
	// adjacency list starts. The first chunk of a non-empty stream always
	// has Runs[0] == 0.
	Runs []int32
}

// BatchAlgorithm is the driver fast path: an Algorithm that can consume a
// columnar batch in one call instead of one Edge callback per item.
//
// The contract mirrors the item protocol exactly. The driver calls
// StartPass, then EdgeBatch once per batch in stream order; inside
// EdgeBatch the algorithm must issue its own StartList/EndList/Edge
// transitions — StartList at every run offset (closing the previously open
// list first, if any), Edge for every column position. Because a batch can
// end mid-list, the algorithm must carry the open-list state across
// EdgeBatch calls (see ListCursor) and reset it in StartPass. After the
// final batch of a pass the DRIVER closes the still-open list by calling
// EndList with the last owner, then calls EndPass — so an implementation's
// EndList/EndPass need no batch-specific handling.
//
// A correct EdgeBatch produces, for any batch split of a stream, the exact
// callback-visible state sequence of the item path; the root
// batch-equality tests enforce this per estimator per driver.
type BatchAlgorithm interface {
	Algorithm
	// EdgeBatch consumes one columnar batch: owners[i]/nbrs[i] is item i,
	// runs the in-batch offsets where a new adjacency list starts.
	EdgeBatch(owners, nbrs []uint32, runs []int32)
}

// ListCursor is the open-list state a BatchAlgorithm carries across
// EdgeBatch calls: the owner of the currently open adjacency list, if any.
// Reset it (to the zero value) in StartPass.
type ListCursor struct {
	// Owner is the owner of the open list; meaningful only when Open.
	Owner graph.V
	// Open reports whether an adjacency list is currently open.
	Open bool
}

// chunkable reports whether every vertex id in items fits the uint32
// columns.
func chunkable(items []Item) bool {
	for _, it := range items {
		if it.Owner < 0 || it.Owner > math.MaxUint32 || it.Nbr < 0 || it.Nbr > math.MaxUint32 {
			return false
		}
	}
	return true
}

// buildChunks encodes items into columnar chunks of at most chunkItems
// items each. It returns nil when some id does not fit uint32 (the caller
// then keeps the row form only).
func buildChunks(items []Item, chunkItems int) []Chunk {
	if !chunkable(items) {
		return nil
	}
	if chunkItems <= 0 {
		chunkItems = DefaultChunkItems
	}
	chunks := make([]Chunk, 0, (len(items)+chunkItems-1)/chunkItems)
	var prev graph.V
	first := true
	for base := 0; base < len(items); base += chunkItems {
		end := base + chunkItems
		if end > len(items) {
			end = len(items)
		}
		seg := items[base:end]
		c := Chunk{
			Owners: make([]uint32, len(seg)),
			Nbrs:   make([]uint32, len(seg)),
		}
		for i, it := range seg {
			c.Owners[i] = uint32(it.Owner)
			c.Nbrs[i] = uint32(it.Nbr)
			if first || it.Owner != prev {
				c.Runs = append(c.Runs, int32(i))
				prev = it.Owner
				first = false
			}
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// decodeChunks materializes the row form of chunks (the Items() adapter).
func decodeChunks(chunks []Chunk, n int) []Item {
	items := make([]Item, 0, n)
	for i := range chunks {
		c := &chunks[i]
		for j := range c.Owners {
			items = append(items, Item{Owner: graph.V(c.Owners[j]), Nbr: graph.V(c.Nbrs[j])})
		}
	}
	return items
}

// itemOnly hides an estimator's EdgeBatch (if any) from the drivers by
// exposing exactly the Estimator method set.
type itemOnly struct{ Estimator }

// ItemOnly wraps e so drivers cannot see an EdgeBatch implementation and
// always use the item-at-a-time path — the A/B control for the
// batch-equality tests and benchmarks.
func ItemOnly(e Estimator) Estimator { return itemOnly{e} }
