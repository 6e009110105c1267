package stream

// Columnar chunked stream representation. A Stream's canonical storage is a
// sequence of Chunks: flat little-endian-friendly []uint32 owner/neighbor
// columns plus the in-chunk offsets where a new adjacency list starts. The
// chunked form is what the drivers iterate — decoding it into the
// Algorithm item callbacks, the only delivery protocol — and what the
// mmap-able binary file format (mapped.go) stores verbatim.
//
// Vertex ids are graph.V (int64) in the model but uint32 in the columns;
// streams whose ids do not fit keep only the row ([]Item) form and every
// driver transparently walks the rows for them instead.

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
