// Package flat provides Table, the open-addressing hash index behind the
// estimators' per-item state: a power-of-two slot array indexed by
// hash & mask with linear probing, int32 values (arena handles), and no
// allocation per insert once the table has reached its working size.
//
// The caller supplies each key's 64-bit hash. Estimators already hold a
// well-mixed hash for most keys (the sampler's seeded edge hash), and a
// vertex key needs only Mix; passing it in keeps the probe loop free of
// indirect calls. The hash's low 32 bits (more than any mask uses) are
// stored in the slot, so growth and backward-shift deletion never
// recompute it, and a slot keyed by a vertex id stays 16 bytes.
package flat

// Mix is a cheap 64-bit finalizer (one multiply, one xor-shift) that
// spreads a key's high bits into the low bits hash & mask indexes.
func Mix(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>29
}

// Mix2 hashes an ordered pair of keys.
func Mix2(a, b uint64) uint64 {
	return Mix(a*0xbf58476d1ce4e5b9 ^ b)
}

type slot[K comparable] struct {
	key  K
	hash uint32 // low bits of the key's hash
	val  int32  // empty slots hold -1
}

// Table maps keys to non-negative int32 values. The zero value is not
// usable; call Init (or New) first. Load is kept at or below one half, so
// a probe sequence is short and the loop needs no bound.
type Table[K comparable] struct {
	slots []slot[K]
	mask  uint32
	n     int
}

// New returns a table sized to hold hint keys without growing.
func New[K comparable](hint int) *Table[K] {
	t := new(Table[K])
	t.Init(hint)
	return t
}

// Init empties t and sizes it to hold hint keys without growing.
func (t *Table[K]) Init(hint int) {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	t.alloc(size)
}

func (t *Table[K]) alloc(size int) {
	t.slots = make([]slot[K], size)
	for i := range t.slots {
		t.slots[i].val = -1
	}
	t.mask = uint32(size - 1)
	t.n = 0
}

// Len returns the number of keys held.
func (t *Table[K]) Len() int { return t.n }

// Get returns the value stored for k (hash h), or -1 and false.
func (t *Table[K]) Get(k K, h uint64) (int32, bool) {
	h32 := uint32(h)
	for i := h32 & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val < 0 {
			return -1, false
		}
		if s.hash == h32 && s.key == k {
			return s.val, true
		}
	}
}

// Put stores v (which must be non-negative) for k, replacing any value
// already there.
func (t *Table[K]) Put(k K, h uint64, v int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	h32 := uint32(h)
	for i := h32 & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val < 0 {
			*s = slot[K]{key: k, hash: h32, val: v}
			t.n++
			return
		}
		if s.hash == h32 && s.key == k {
			s.val = v
			return
		}
	}
}

// Delete removes k and reports whether it was present. Later slots of the
// probe run shift back into the hole (no tombstones), so lookups stay as
// short as in a table that never held k.
func (t *Table[K]) Delete(k K, h uint64) bool {
	h32 := uint32(h)
	i := h32 & t.mask
	for {
		s := &t.slots[i]
		if s.val < 0 {
			return false
		}
		if s.hash == h32 && s.key == k {
			break
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; ; j = (j + 1) & t.mask {
		s := &t.slots[j]
		if s.val < 0 {
			break
		}
		// s may fill the hole at i unless its home lies cyclically in
		// (i, j], in which case moving it to i would put it before home.
		home := s.hash & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = slot[K]{val: -1}
	t.n--
	return true
}

func (t *Table[K]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for _, s := range old {
		if s.val < 0 {
			continue
		}
		i := s.hash & t.mask
		for t.slots[i].val >= 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
		t.n++
	}
}
