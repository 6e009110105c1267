package core

import (
	"slices"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
)

// Kernel layout. The per-item work of the adjacency-list estimators is
// "flag every tracked record that has the current neighbour as an
// endpoint; at the end of the list, act on the records both of whose
// endpoints appeared". Records (sampled edges, H watchers, sampled
// wedges) live in arena slices and are addressed by int32 handles; the
// flag engine below files each record under both of its endpoints and
// keeps the per-list flags in a byte array beside the arena, so a flag
// walk touches the vertex index, the endpoint's links and the flag bytes,
// never the records themselves.

// Record state bits, one byte per record.
const (
	flagSide0 uint8 = 1 << iota // endpoint 0 appeared in the current list
	flagSide1                   // endpoint 1 appeared in the current list
	deadBit                     // tombstoned: never flagged again

	bothSides = flagSide0 | flagSide1
)

// vertexIndex maps the vertices that have ever had a record to dense
// slots. One index can serve several incidence engines (the detector and
// watch set of one estimator), so an item costs one lookup however many
// engines it flags. It makes no assumption about the ids themselves.
type vertexIndex struct{ t flat.Table[graph.V] }

// presize bounds the capacity reserved at construction for a size hint.
// SampleSize and PairCap are caps that a run may never fill (experiments
// set them far above the sample), so reservations stop here and the
// arenas grow by doubling beyond it.
func presize(n int) int { return min(n, 1<<13) }

func newVertexIndex(n int) *vertexIndex {
	x := new(vertexIndex)
	x.t.Init(presize(n))
	return x
}

func vertexHash(v graph.V) uint64 { return flat.Mix(uint64(v)) }

// slot returns v's slot, or -1 if v has none.
func (x *vertexIndex) slot(v graph.V) int32 {
	s, _ := x.t.Get(v, vertexHash(v))
	return s
}

// slotOrAdd returns v's slot, assigning the next one if v has none.
func (x *vertexIndex) slotOrAdd(v graph.V) int32 {
	h := vertexHash(v)
	s, ok := x.t.Get(v, h)
	if !ok {
		s = int32(x.t.Len())
		x.t.Put(v, h, s)
	}
	return s
}

// incidence is the flag engine shared by detector, watchSet and the
// 4-cycle wedge set. A link l = h<<1 | side names endpoint side (0 or 1)
// of record h. Each vertex's links, in registration order, fill one
// contiguous segment of a shared pool, found through the vertex's slot in
// vx, so a flag walk reads consecutive int32s rather than chasing
// pointers.
//
// Tombstoned records are dropped from a segment as a walk passes them.
// The compaction is stable: live records keep their relative order, so
// the order in which records enter dirty — and hence the order endList
// reports them, which for the detector is the order of Reservoir.Offer
// calls and so decides which pairs are kept — is the order an
// uncompacted walk would give.
type incidence struct {
	vx    *vertexIndex
	segs  []segment // per vertex slot
	pool  []int32   // backing store of every segment
	state []uint8   // per record: flag bits and tombstone
	dirty []int32   // records flagged in this list, in first-flag order
	live  int       // records not tombstoned
}

// segment is pool[off : off+n], with room to grow to off+cap in place.
// A full segment moves to the end of the pool with twice the room; the
// space it leaves is not reused, which at most doubles the pool.
type segment struct{ off, n, cap int32 }

// init sizes the engine for about n records over the vertex index vx.
func (in *incidence) init(vx *vertexIndex, n int) {
	n = presize(n)
	in.vx = vx
	in.segs = make([]segment, 0, n)
	in.pool = make([]int32, 0, 4*n)
	in.state = make([]uint8, 0, n)
	in.dirty = make([]int32, 0, n)
}

// add registers a new record with endpoints a (side 0) and b (side 1) and
// returns its handle, the index of its entry in the caller's arena.
func (in *incidence) add(a, b graph.V) int32 {
	h := int32(len(in.state))
	in.state = append(in.state, 0)
	in.link(a, h<<1)
	in.link(b, h<<1|1)
	in.live++
	return h
}

// link appends l to x's segment.
func (in *incidence) link(x graph.V, l int32) {
	vs := in.vx.slotOrAdd(x)
	for int(vs) >= len(in.segs) {
		in.segs = append(in.segs, segment{})
	}
	sg := &in.segs[vs]
	if sg.n == sg.cap {
		c := max(2*sg.cap, 2)
		off := int32(len(in.pool))
		in.pool = slices.Grow(in.pool, int(c))[:off+c]
		copy(in.pool[off:], in.pool[sg.off:sg.off+sg.n])
		sg.off, sg.cap = off, c
	}
	in.pool[sg.off+sg.n] = l
	sg.n++
}

// kill tombstones record h. Its links are dropped by the next walk of
// each endpoint's segment.
func (in *incidence) kill(h int32) {
	if in.state[h]&deadBit == 0 {
		in.state[h] |= deadBit
		in.live--
	}
}

func (in *incidence) dead(h int32) bool { return in.state[h]&deadBit != 0 }

// links returns the segment of the vertex with slot vs (-1 for none).
func (in *incidence) links(vs int32) (*segment, []int32) {
	if vs < 0 || int(vs) >= len(in.segs) {
		return nil, nil
	}
	sg := &in.segs[vs]
	return sg, in.pool[sg.off : sg.off+sg.n]
}

// flag marks the appearance of the vertex with slot vs (-1 for none) in
// the current list, dropping the tombstoned links it passes.
func (in *incidence) flag(vs int32) {
	sg, ls := in.links(vs)
	j := 0
	for _, l := range ls {
		h := l >> 1
		st := in.state[h]
		if st&deadBit != 0 {
			continue
		}
		ls[j] = l
		j++
		if st&bothSides == 0 {
			in.dirty = append(in.dirty, h)
		}
		in.state[h] = st | 1<<(l&1)
	}
	if sg != nil {
		sg.n = int32(j)
	}
}

// endList clears the flags of the list that just ended and returns the
// live records both of whose endpoints appeared in it, in first-flag
// order. The slice is valid until the next flag.
func (in *incidence) endList() []int32 {
	closed := in.dirty[:0]
	for _, h := range in.dirty {
		if in.state[h] == bothSides {
			closed = append(closed, h)
		}
		in.state[h] &^= bothSides
	}
	in.dirty = in.dirty[:0]
	return closed
}

// edgeRec is the tracked state of one sampled edge: its canonical endpoints,
// the list positions of its endpoints (filled during pass one; -1 while
// unknown), the position at which it entered the sample, and the
// discoveries credited to it (naive estimator). Its presence flags and
// tombstone live in the detector's incidence engine.
type edgeRec struct {
	u, v       graph.V // canonical u < v; incidence sides 0 and 1
	posU, posV int     // list positions of u's and v's lists; -1 unknown
	posFirst   int     // position at which the edge entered the sample
	hits       int64   // discoveries credited to this edge (naive estimator)
}

// pos returns the recorded list position of endpoint x (which must be u or
// v), or -1 if not yet seen.
func (r *edgeRec) pos(x graph.V) int {
	if x == r.u {
		return r.posU
	}
	return r.posV
}

// detector maintains the per-list presence flags for a set of tracked edges
// and reports, at the end of each adjacency list, the edges whose both
// endpoints appeared — i.e. the triangles (edge, apex=list owner). It uses
// O(1) state per tracked edge, never O(degree) transient state.
type detector struct {
	inc    incidence
	recs   []edgeRec              // arena, indexed by handle
	byEdge flat.Table[graph.Edge] // live tracked edge → handle
}

// newDetector sizes a detector for about n tracked edges over the vertex
// index vx.
func newDetector(vx *vertexIndex, n int) *detector {
	d := &detector{recs: make([]edgeRec, 0, presize(n))}
	d.inc.init(vx, n)
	d.byEdge.Init(presize(n))
	return d
}

func edgeHash(e graph.Edge) uint64 { return flat.Mix2(uint64(e.U), uint64(e.V)) }

// tracked reports whether {u,v} is a live tracked edge. An evicted edge
// never re-enters a bottom-k sample (its hash exceeds the threshold from
// then on), so dropping it from the index on eviction loses nothing.
func (d *detector) tracked(u, v graph.V) bool {
	e := graph.Edge{U: u, V: v}.Norm()
	_, ok := d.byEdge.Get(e, edgeHash(e))
	return ok
}

// track registers the edge {owner,nbr} first seen in owner's list at
// position pos, indexing both endpoints for flag lookups.
func (d *detector) track(owner, nbr graph.V, pos int) {
	e := graph.Edge{U: owner, V: nbr}.Norm()
	r := edgeRec{u: e.U, v: e.V, posU: -1, posV: -1, posFirst: pos}
	if owner == r.u {
		r.posU = pos
	} else {
		r.posV = pos
	}
	h := d.inc.add(r.u, r.v)
	d.recs = append(d.recs, r)
	d.byEdge.Put(e, edgeHash(e), h)
}

// notePos records that owner's adjacency list is at position pos, filling
// the endpoint positions of tracked edges incident to owner.
func (d *detector) notePos(owner graph.V, pos int) {
	_, ls := d.inc.links(d.inc.vx.slot(owner))
	for _, l := range ls {
		if d.inc.dead(l >> 1) {
			continue
		}
		r := &d.recs[l>>1]
		if l&1 == 0 && r.posU < 0 {
			r.posU = pos
		} else if l&1 == 1 && r.posV < 0 {
			r.posV = pos
		}
	}
}

// flag marks the appearance, inside the current adjacency list, of the
// vertex with slot vs.
func (d *detector) flag(vs int32) { d.inc.flag(vs) }

// endList returns the handles of the live tracked edges both of whose
// endpoints appeared in the list that just ended (the list owner is a
// triangle apex for each), in discovery order, and clears all flags.
func (d *detector) endList() []int32 { return d.inc.endList() }

// markDead tombstones the record of e (bottom-k eviction) and returns its
// handle, or -1 if e is not tracked.
func (d *detector) markDead(e graph.Edge) int32 {
	hash := edgeHash(e)
	h, ok := d.byEdge.Get(e, hash)
	if !ok {
		return -1
	}
	d.byEdge.Delete(e, hash)
	d.inc.kill(h)
	return h
}

func (d *detector) dead(h int32) bool { return d.inc.dead(h) }

// len returns the number of live tracked edges.
func (d *detector) len() int { return d.inc.live }

// watcher counts, during a designated pass, the adjacency lists whose owner
// is adjacent to both of its endpoints x and y (incidence sides 0 and 1)
// and arrives at a position strictly greater than thresh — exactly the
// quantity H_{e',τ} when thresh is the position of τ's apex with respect
// to e' = {x,y} (or the exact triangle load T(e') when thresh is 0).
type watcher struct {
	thresh int
	// Deferred threshold: when the needed endpoint position is not yet
	// known at registration time, threshRec/threshAt identify it and the
	// threshold is resolved at the end of pass one. threshRec is a
	// detector handle, -1 when the threshold is already known.
	threshRec int32
	threshAt  graph.V
	count     int64
}

// watchSet is the flag engine for watchers, parallel to detector.
type watchSet struct {
	inc incidence
	ws  []watcher // arena, indexed by handle
}

// newWatchSet sizes a watch set for about n watchers over the vertex
// index vx.
func newWatchSet(vx *vertexIndex, n int) *watchSet {
	s := &watchSet{ws: make([]watcher, 0, presize(n))}
	s.inc.init(vx, n)
	return s
}

// add registers w on endpoints x and y and returns its handle.
func (s *watchSet) add(x, y graph.V, w watcher) int32 {
	h := s.inc.add(x, y)
	s.ws = append(s.ws, w)
	return h
}

// resolve fills watcher h's deferred threshold from the recorded endpoint
// position in d.
func (s *watchSet) resolve(h int32, d *detector) {
	if w := &s.ws[h]; w.threshRec >= 0 {
		w.thresh = d.recs[w.threshRec].pos(w.threshAt)
		w.threshRec = -1
	}
}

func (s *watchSet) kill(h int32)        { s.inc.kill(h) }
func (s *watchSet) count(h int32) int64 { return s.ws[h].count }
func (s *watchSet) flag(vs int32)       { s.inc.flag(vs) }

// finishList increments every fully-flagged live watcher whose threshold is
// below the position of the list that just ended, then clears flags.
func (s *watchSet) finishList(pos int) {
	for _, h := range s.inc.endList() {
		if w := &s.ws[h]; pos > w.thresh {
			w.count++
		}
	}
}
