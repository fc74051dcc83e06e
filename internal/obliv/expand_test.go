package obliv

import (
	"math/rand"
	"testing"
)

// expandInput lays out a live prefix of len(dests) elements bound for
// dests (strictly increasing, each below n) and returns the payload, the
// live bits and the distances Expand takes. Live values are 1000+t, dead
// ones 2000+i.
func expandInput(n int, dests []int) (U64Slice, []uint8, []uint64) {
	vals := make(U64Slice, n)
	live := make([]uint8, n)
	dist := make([]uint64, n)
	for i := range vals {
		vals[i] = 2000 + uint64(i)
	}
	for t, d := range dests {
		vals[t] = 1000 + uint64(t)
		live[t] = 1
		dist[t] = uint64(d - t)
	}
	return vals, live, dist
}

// checkExpand runs Expand and checks that live element t lands on dests[t]
// and that the result is a permutation of the input.
func checkExpand(t *testing.T, s Swapper, vals U64Slice, live []uint8, dist []uint64, dests []int) {
	t.Helper()
	n := len(vals)
	Expand(s, live, dist)
	for tt, d := range dests {
		if vals[d] != 1000+uint64(tt) {
			t.Fatalf("n=%d dests=%v: slot %d = %d, want live element %d", n, dests, d, vals[d], tt)
		}
	}
	seen := make(map[uint64]bool, n)
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("n=%d dests=%v: duplicate value %d after expansion", n, dests, v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("n=%d: %d distinct values after expansion", n, len(seen))
	}
}

// TestExpandExhaustiveSmall tries every live-prefix length and every
// strictly increasing destination set for every n <= 10: each subset of
// [0,n) of size k, taken in order, is a valid destination set for a live
// prefix of length k.
func TestExpandExhaustiveSmall(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for set := 0; set < 1<<n; set++ {
			var dests []int
			for i := 0; i < n; i++ {
				if set>>i&1 == 1 {
					dests = append(dests, i)
				}
			}
			vals, live, dist := expandInput(n, dests)
			checkExpand(t, vals, vals, live, dist, dests)
		}
	}
}

// randomDests picks k strictly increasing destinations in [0,n).
func randomDests(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)[:k]
	mark := make([]bool, n)
	for _, p := range perm {
		mark[p] = true
	}
	dests := make([]int, 0, k)
	for i, m := range mark {
		if m {
			dests = append(dests, i)
		}
	}
	return dests
}

func TestExpandRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{11, 17, 64, 100, 255, 256, 257, 1000, 1656, 4096} {
		for trial := 0; trial < 8; trial++ {
			k := rng.Intn(n + 1)
			switch trial {
			case 0:
				k = 0
			case 1:
				k = n
			}
			dests := randomDests(rng, n, k)
			vals, live, dist := expandInput(n, dests)
			checkExpand(t, vals, vals, live, dist, dests)
		}
	}
}

// TestExpandTraceOblivious: the swap schedule is the same function of n
// for every live prefix and destination set.
func TestExpandTraceOblivious(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 65, 512, 1000} {
		var ref []int64
		for trial := 0; trial < 5; trial++ {
			dests := randomDests(rng, n, rng.Intn(n+1))
			vals, live, dist := expandInput(n, dests)
			ts := &traceSwapper{U64Slice: vals}
			checkExpand(t, ts, vals, live, dist, dests)
			if trial == 0 {
				ref = ts.ops
				continue
			}
			if !equalOps(ref, ts.ops) {
				t.Fatalf("n=%d: swap schedule depends on the contents", n)
			}
		}
	}
}

func equalOps(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExpandLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on live/dist length mismatch")
		}
	}()
	Expand(make(U64Slice, 4), make([]uint8, 4), make([]uint64, 3))
}

// FuzzExpand decodes a length and a destination set from the input, checks
// the expansion against its specification, and checks that the swap
// schedule equals the one for an all-dead array of the same length.
func FuzzExpand(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(9), []byte{0xff, 0x01})
	f.Add(uint16(300), []byte{0xaa, 0x55, 0x0f})
	f.Fuzz(func(t *testing.T, size uint16, set []byte) {
		n := int(size % 4097)
		var dests []int
		for i := 0; i < n && i/8 < len(set); i++ {
			if set[i/8]>>(i%8)&1 == 1 {
				dests = append(dests, i)
			}
		}
		vals, live, dist := expandInput(n, dests)
		ts := &traceSwapper{U64Slice: vals}
		checkExpand(t, ts, vals, live, dist, dests)

		dead := &traceSwapper{U64Slice: make(U64Slice, n)}
		Expand(dead, make([]uint8, n), make([]uint64, n))
		if !equalOps(ts.ops, dead.ops) {
			t.Fatalf("n=%d: swap schedule depends on the contents", n)
		}
	})
}
