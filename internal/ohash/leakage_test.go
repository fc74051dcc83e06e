package ohash

import (
	"fmt"
	"math/rand"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/store"
	"snoopy/internal/trace"
)

// pickKeys returns n distinct keys, drawn from next, such that at most
// load[b] of them hash to tier-1 bucket b (load is consumed).
func pickKeys(k1 crypt.SipKey, b1 int, load []int, n int, next func() uint64) []uint64 {
	keys := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for len(keys) < n {
		key := next()
		b := crypt.SipBucket(k1, key, b1)
		if seen[key] || load[b] == 0 {
			continue
		}
		seen[key] = true
		load[b]--
		keys = append(keys, key)
	}
	return keys
}

// batchKind is one batch of the leakage test: its keys and the number of
// rows it sends to tier 2 (-1: not fixed).
type batchKind struct {
	name  string
	keys  []uint64
	spill int
}

// leakageBatches returns the three batch kinds of the leakage test for n rows.
func leakageBatches(rng *rand.Rand, k1 crypt.SipKey, p Params, n int) []batchKind {
	g := p.GeometryFor(n)
	realKey := func() uint64 { return rng.Uint64() &^ (store.DummyKeyBit | TableDummyBit) }
	even := func() []int {
		load := make([]int, g.B1)
		for b := range load {
			load[b] = p.Mu1 // <= Z1: no tier-1 overflow
		}
		return load
	}

	// Overflow-heavy: one hot bucket takes Z1 + ov rows, ov ≈ 3/4 of the
	// tier-2 capacity; the rest spread without overflow over the others.
	ov := min(3*g.C2/4, max(0, n-g.Z1))
	hot := even()
	var heavy []uint64
	if ov > 0 {
		hot[0] = 0
		load := make([]int, g.B1)
		load[0] = g.Z1 + ov
		heavy = pickKeys(k1, g.B1, load, g.Z1+ov, realKey)
	}
	heavy = append(heavy, pickKeys(k1, g.B1, hot, n-len(heavy), realKey)...)

	// LB-dummy-heavy: three in four keys are load-balancer dummies.
	mixed := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	for len(mixed) < n {
		key := realKey()
		if rng.Intn(4) != 0 {
			key |= store.DummyKeyBit
		}
		if !seen[key] {
			seen[key] = true
			mixed = append(mixed, key)
		}
	}

	return []batchKind{
		{"spread", pickKeys(k1, g.B1, even(), n, realKey), 0},
		{"overflow-heavy", heavy, ov},
		{"lb-dummies", mixed, -1},
	}
}

// batchOf builds a request batch over keys with random, nonzero fields and
// payloads, so any field a construction leaves behind in an empty slot shows.
func batchOf(rng *rand.Rand, keys []uint64, block int) *store.Requests {
	reqs := store.NewRequests(len(keys), block)
	data := make([]byte, block)
	for i, key := range keys {
		for j := range data {
			data[j] = byte(1 + rng.Intn(255))
		}
		reqs.SetRow(i, uint8(rng.Intn(2)), key, uint32(rng.Uint32()), rng.Uint64()|1, rng.Uint64()|1, data)
		reqs.Aux[i] = uint8(rng.Intn(2))
	}
	return reqs
}

// checkSlots verifies the table layout: every slot's Sub is its bucket, and
// every empty slot (Tag 0) holds a padding row — pad key, zeroed fields and
// data — so no request content lingers where the construction routed rows
// through. It returns the occupancy of each tier.
func checkSlots(t *testing.T, tbl *Table) (occ1, occ2 int) {
	t.Helper()
	occ := [2]int{}
	for ti, tier := range [2]struct {
		rows *store.Requests
		z    int
	}{{tbl.Tier1, tbl.Geom.Z1}, {tbl.Tier2, tbl.Geom.Z2}} {
		r := tier.rows
		for s := 0; s < r.Len(); s++ {
			if r.Sub[s] != uint32(s/tier.z) {
				t.Fatalf("tier %d slot %d: Sub %d, want bucket %d", ti+1, s, r.Sub[s], s/tier.z)
			}
			if r.Tag[s] == 1 {
				if r.Key[s]&TableDummyBit != 0 {
					t.Fatalf("tier %d slot %d: occupied slot holds a pad key", ti+1, s)
				}
				occ[ti]++
				continue
			}
			if r.Key[s]&(store.DummyKeyBit|TableDummyBit) != store.DummyKeyBit|TableDummyBit {
				t.Fatalf("tier %d slot %d: empty slot key %#x is not a pad key", ti+1, s, r.Key[s])
			}
			if r.Op[s] != 0 || r.Aux[s] != 0 || r.Seq[s] != 0 || r.Client[s] != 0 {
				t.Fatalf("tier %d slot %d: empty slot keeps request fields", ti+1, s)
			}
			for _, c := range r.Block(s) {
				if c != 0 {
					t.Fatalf("tier %d slot %d: empty slot keeps request data", ti+1, s)
				}
			}
		}
	}
	return occ[0], occ[1]
}

// TestBuildTraceIndependentOfBatchContents is the ohash-level leakage test:
// with the hash keys pinned, a batch whose keys spread evenly over the
// tier-1 buckets, one that pushes ~3/4 of the tier-2 capacity into tier 2,
// and one made mostly of load-balancer dummies build and extract with the
// same access trace and the same geometry.
func TestBuildTraceIndependentOfBatchContents(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	k1, k2 := crypt.MustNewSipKey(), crypt.MustNewSipKey()
	p := DefaultParams()
	for _, n := range []int{1, 64, 400, 828, 2106} {
		var ref *trace.Recorder
		var refGeom Geometry
		for _, kind := range leakageBatches(rng, k1, p, n) {
			name := fmt.Sprintf("n=%d/%s", n, kind.name)
			reqs := batchOf(rng, kind.keys, 16)
			rec := trace.New()
			pp := p
			pp.Rec = rec
			tbl, err := BuildWithKeys(reqs, pp, k1, k2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			occ1, occ2 := checkSlots(t, tbl)
			if occ1+occ2 != n {
				t.Fatalf("%s: occupancy %d+%d, want %d", name, occ1, occ2, n)
			}
			if kind.spill >= 0 && occ2 != kind.spill {
				t.Fatalf("%s: %d rows in tier 2, want %d", name, occ2, kind.spill)
			}
			if kind.name == "overflow-heavy" && n >= tbl.Geom.Z1+tbl.Geom.C2/2 && occ2 < tbl.Geom.C2/2 {
				t.Fatalf("%s: only %d of C2=%d rows overflowed", name, occ2, tbl.Geom.C2)
			}
			for i := 0; i < n; i++ {
				c, tier, slot := findKey(tbl, reqs.Key[i])
				if c != 1 {
					t.Fatalf("%s: key %#x found %d times", name, reqs.Key[i], c)
				}
				tr := tbl.Tier1
				if tier == 2 {
					tr = tbl.Tier2
				}
				if tr.Op[slot] != reqs.Op[i] || tr.Seq[slot] != reqs.Seq[i] || tr.Aux[slot] != reqs.Aux[i] ||
					tr.Client[slot] != reqs.Client[i] || string(tr.Block(slot)) != string(reqs.Block(i)) {
					t.Fatalf("%s: key %#x fields mangled", name, reqs.Key[i])
				}
			}
			tbl.Extract()
			if ref == nil {
				ref, refGeom = rec, tbl.Geom
				continue
			}
			if tbl.Geom != refGeom {
				t.Fatalf("%s: geometry %+v, want %+v", name, tbl.Geom, refGeom)
			}
			if !trace.Equal(ref, rec) {
				t.Fatalf("%s: construction trace depends on batch contents (%d vs %d events)",
					name, rec.Count(), ref.Count())
			}
		}
	}
}
