package obliv

import "math/bits"

// Oblivious, order-preserving compaction (paper §4.2.1: "Goodrich's
// algorithm ... runs in time O(n log n) and is order-preserving").
//
// Compact moves the elements whose mark bit is 1 to the front of s,
// preserving their relative order; the unmarked elements end up after them
// in unspecified order. The sequence of OSwap positions depends only on
// s.Len(): mark bits influence only swap *conditions*, via branch-free
// arithmetic. The implementation is the ORCompact / OROffCompact recursion
// (Sasy, Johnson, Goldberg), which performs exactly the swap schedule of a
// reverse butterfly routing network — the same O(n log n) network Goodrich's
// compaction routes through.
//
// marks must have length s.Len() with entries 0 or 1. marks is consumed
// (it is not updated to reflect element movement).
func Compact(s Swapper, marks []uint8) {
	if s.Len() != len(marks) {
		panic("obliv: Compact marks length mismatch")
	}
	orCompact(s, marks, 0, s.Len())
}

// orCompact compacts s[lo:lo+n] for arbitrary n.
func orCompact(s Swapper, marks []uint8, lo, n int) {
	if n < 2 {
		return
	}
	n1 := greatestPowerOfTwoLessThan(n + 1) // largest power of two <= n
	if n1 == n {
		orOffCompact(s, marks, lo, n, 0)
		return
	}
	n2 := n - n1
	m := 0
	for i := lo; i < lo+n2; i++ {
		m += int(marks[i])
	}
	orCompact(s, marks, lo, n2)
	orOffCompact(s, marks, lo+n2, n1, (n1-n2+m)%n1)
	mm := uint64(m)
	for i := 0; i < n2; i++ {
		b := GeU64(uint64(i), mm)
		s.OSwap(b, lo+i, lo+i+n1)
	}
}

// orOffCompact compacts s[lo:lo+n] (n a power of two) so that the marked
// elements occupy positions lo+z, lo+z+1, ... (mod n), in order.
func orOffCompact(s Swapper, marks []uint8, lo, n, z int) {
	if n < 2 {
		return
	}
	if n == 2 {
		b := ((1 - marks[lo]) & marks[lo+1]) ^ uint8(z&1)
		s.OSwap(b, lo, lo+1)
		return
	}
	h := n / 2
	m := 0
	for i := lo; i < lo+h; i++ {
		m += int(marks[i])
	}
	orOffCompact(s, marks, lo, h, z%h)
	orOffCompact(s, marks, lo+h, h, (z+m)%h)
	var sbit uint8
	// sbit and the per-i conditions depend on the secret count m, computed
	// branch-free below.
	zm := uint64(z % h)
	zpm := uint64((z + m) % h)
	sbit = GeU64(zm+uint64(m), uint64(h)) ^ GeU64(uint64(z), uint64(h))
	for i := 0; i < h; i++ {
		b := sbit ^ GeU64(uint64(i), zpm)
		s.OSwap(b, lo+i, lo+i+h)
	}
}

// CompactLogShift is an alternative order-preserving oblivious compaction
// kept for ablation benchmarks: Goodrich's log-shifting formulation. Each
// marked element must move left by d = i - rank(i) positions; d is routed
// one bit at a time over log n passes. Distances of kept elements are
// non-decreasing in i, which guarantees the passes never collide.
//
// It performs (n-2^k) conditional swaps in pass k — the same O(n log n)
// total as Compact — but with worse constants because it must route a
// per-element distance word alongside the payload.
func CompactLogShift(s Swapper, marks []uint8) {
	n := s.Len()
	if n != len(marks) {
		panic("obliv: CompactLogShift marks length mismatch")
	}
	if n < 2 {
		return
	}
	// dist[i] = how far the element currently at slot i still has to move
	// left; live[i] = whether slot i currently holds a marked element.
	// Both arrays are swapped alongside the payload, branch-free.
	dist := make([]uint64, n)
	live := make([]uint8, n)
	rank := uint64(0)
	for i := 0; i < n; i++ {
		mi := marks[i]
		live[i] = mi
		// dist = i - rank if marked, else 0; computed branch-free.
		d := uint64(i) - rank
		dist[i] = Mask64(mi) & d
		rank += uint64(mi)
	}
	for k := 0; (1 << k) < n; k++ {
		step := 1 << k
		bit := uint64(step)
		for j := step; j < n; j++ {
			// Move the element at j left by step iff it is live and bit k
			// of its remaining distance is set.
			c := live[j] & uint8((dist[j]>>uint(k))&1)
			s.OSwap(c, j-step, j)
			// Swap metadata with the same condition.
			CondSwapU64(c, &dist[j-step], &dist[j])
			CondSwapU8(c, &live[j-step], &live[j])
			// Clear the routed bit on the element now at j-step.
			CondSetU64(c, &dist[j-step], dist[j-step]&^bit)
		}
	}
}

// Expand is the mirror of CompactLogShift: it moves every live element of s
// right by its distance, routing dist one bit per pass, high bit first, with
// positions visited in descending order. It is the oblivious bin placement
// step of hash-table construction: sort the real rows, then spread them into
// their slots.
//
// live[i] marks the elements to move and dist[i] their distances (0 for the
// others). Destinations i+dist[i] of live elements must lie below s.Len(),
// and distances must never decrease over the live elements in position
// order; then no two live elements meet and their order is preserved. A
// live prefix routed to strictly increasing destinations always satisfies
// this. The non-live elements end up in the remaining slots in unspecified
// order. The OSwap positions depend only on s.Len(); live and dist only
// reach swap conditions. Both slices are swapped alongside the payload.
//
// Cost: (n - 2^k) conditional swaps in pass k, O(n log n) in total.
func Expand(s Swapper, live []uint8, dist []uint64) {
	n := s.Len()
	if len(live) != n || len(dist) != n {
		panic("obliv: Expand live/dist length mismatch")
	}
	if n < 2 {
		return
	}
	// After the passes for bits above k, every live element sits at its
	// start plus the high bits of its distance: still in order, so in pass k
	// the slot an element moves into is never held by a live element.
	for k := bits.Len(uint(n-1)) - 1; k >= 0; k-- {
		step := 1 << k
		for j := n - 1 - step; j >= 0; j-- {
			c := live[j] & uint8((dist[j]>>uint(k))&1)
			s.OSwap(c, j, j+step)
			CondSwapU64(c, &dist[j], &dist[j+step])
			CondSwapU8(c, &live[j], &live[j+step])
		}
	}
}
