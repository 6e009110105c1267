package flat

import (
	"math/rand/v2"
	"testing"
)

// TestTableMatchesMap drives a table and a Go map with the same random
// puts, overwrites and deletes over a small key space (so probe runs wrap
// and collide) and compares every lookup.
func TestTableMatchesMap(t *testing.T) {
	for _, hashOf := range []struct {
		name string
		h    func(int64) uint64
	}{
		{"mixed", func(k int64) uint64 { return Mix(uint64(k)) }},
		// Few distinct hashes: long runs, shifts across the wrap point.
		{"colliding", func(k int64) uint64 { return uint64(k%5) * 0x3fffffffffffffff }},
	} {
		t.Run(hashOf.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 2))
			tab := New[int64](4)
			ref := make(map[int64]int32)
			for step := 0; step < 20000; step++ {
				k := rng.Int64N(300)
				h := hashOf.h(k)
				switch rng.IntN(3) {
				case 0, 1:
					v := rng.Int32N(1 << 20)
					tab.Put(k, h, v)
					ref[k] = v
				case 2:
					_, want := ref[k]
					if got := tab.Delete(k, h); got != want {
						t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
					}
					delete(ref, k)
				}
				if tab.Len() != len(ref) {
					t.Fatalf("step %d: Len %d, want %d", step, tab.Len(), len(ref))
				}
			}
			for k := int64(0); k < 300; k++ {
				v, ok := tab.Get(k, hashOf.h(k))
				w, wok := ref[k]
				if ok != wok || (ok && v != w) {
					t.Fatalf("Get(%d) = %d,%v, want %d,%v", k, v, ok, w, wok)
				}
			}
		})
	}
}

func TestTableNoAllocAtWorkingSize(t *testing.T) {
	tab := New[int64](64)
	allocs := testing.AllocsPerRun(10, func() {
		for k := int64(0); k < 64; k++ {
			tab.Put(k, Mix(uint64(k)), int32(k))
		}
		for k := int64(0); k < 64; k++ {
			tab.Delete(k, Mix(uint64(k)))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per fill/drain cycle, want 0", allocs)
	}
}
