// Package ohash implements the oblivious two-tier hash table of Chan et al.
// that Snoopy's subORAM uses to process request batches (paper §5). The
// table is built from a batch of distinct requests with an oblivious
// construction (one sort of the real rows per tier, compactions, and an
// oblivious expansion into bucket slots; no sort touches padding);
// afterwards, looking up an object id means scanning one full bucket in
// each tier, which hides the slot — and existence — of the match.
//
// Tier sizing follows the paper's approach: tier-1 buckets are small
// constants (overflow there is expected and harmless), and the overflow
// spills into tier 2, whose buckets are sized with the paper's own
// balls-into-bins bound (internal/batch, Theorem 3) so that tier-2 overflow
// is cryptographically negligible. Construction returns an error in the
// negligible event that a batch cannot be placed; callers treat that as the
// security-failure event of the analysis.
package ohash

import (
	"errors"
	"fmt"

	"snoopy/internal/arena"
	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/trace"
)

// TableDummyBit distinguishes table-padding dummy keys from load-balancer
// dummy keys (which carry only store.DummyKeyBit); padding keys sort after
// every batch key within a bucket.
const TableDummyBit = uint64(1) << 62

// ErrOverflow is returned when the batch cannot be placed — a probability-
// negligible event under the configured security parameter.
var ErrOverflow = errors.New("ohash: hash table overflow")

// Params configures table geometry.
type Params struct {
	// Z1 is the tier-1 bucket capacity.
	Z1 int
	// Mu1 is the mean tier-1 bucket load; B1 = ceil(n/Mu1).
	Mu1 int
	// OverflowDiv bounds tier-2 capacity: C2 = max(64, ceil(n/OverflowDiv)).
	OverflowDiv int
	// Lambda is the security parameter (bits) for tier-2 bucket sizing.
	Lambda int
	// Rec, when non-nil, records construction access traces (test-only).
	Rec *trace.Recorder
	// Pool supplies the working memory for table extraction (and, via
	// Builder, scan-worker table copies). Nil means arena.Default.
	Pool *arena.Pool
}

// pool returns the configured arena, defaulting to the process-wide one.
func (p Params) pool() *arena.Pool {
	if p.Pool != nil {
		return p.Pool
	}
	return arena.Default
}

// DefaultParams mirrors the deployment defaults: tier-1 buckets of 8 at mean
// load 4, tier-2 capacity n/8, λ=128.
func DefaultParams() Params {
	return Params{Z1: 8, Mu1: 4, OverflowDiv: 8, Lambda: 128}
}

// Geometry describes the concrete table dimensions for a batch of n.
type Geometry struct {
	N      int // batch size
	B1, Z1 int // tier-1 buckets × capacity
	B2, Z2 int // tier-2 buckets × capacity
	C2     int // tier-2 real-element capacity
}

// GeometryFor computes table dimensions for a batch of n requests.
func (p Params) GeometryFor(n int) Geometry {
	g := Geometry{N: n, Z1: p.Z1}
	g.B1 = (n + p.Mu1 - 1) / p.Mu1
	if g.B1 < 1 {
		g.B1 = 1
	}
	g.C2 = (n + p.OverflowDiv - 1) / p.OverflowDiv
	if g.C2 < 64 {
		g.C2 = 64
	}
	g.B2 = g.C2 // mean tier-2 load 1 minimizes the scanned bucket size
	g.Z2 = batch.Size(g.C2, g.B2, p.Lambda)
	return g
}

// SlotsScannedPerLookup returns Z1+Z2: the per-object scan cost.
func (g Geometry) SlotsScannedPerLookup() int { return g.Z1 + g.Z2 }

// Table is a constructed two-tier oblivious hash table over a batch of
// requests, built by one sort of the real rows, compactions, and an
// oblivious expansion into bucket slots. Tier rows use Tag as the occupancy
// bit (1 = holds a batch request) and Sub as the bucket index; empty slots
// hold padding rows (pad key, zeroed fields and data).
type Table struct {
	Geom  Geometry
	K1    crypt.SipKey
	K2    crypt.SipKey
	Tier1 *store.Requests // Geom.B1 × Geom.Z1 rows, bucket-major
	Tier2 *store.Requests // Geom.B2 × Geom.Z2 rows, bucket-major

	// pool backs Extract's output (arena.Default when zero).
	pool *arena.Pool
}

// Build obliviously constructs a table from a batch of requests with
// distinct keys. The input is not modified. Fresh hash keys are sampled per
// call (paper §5: a new key for every batch so the attacker cannot link
// bucket choices across batches). Callers that build per batch keep a Builder.
func Build(reqs *store.Requests, p Params) (*Table, error) {
	return NewBuilder(p).Build(reqs)
}

// BuildWithKeys is Build with caller-chosen hash keys (see
// Builder.BuildWithKeys). Production code must use Build.
func BuildWithKeys(reqs *store.Requests, p Params, k1, k2 crypt.SipKey) (*Table, error) {
	return NewBuilder(p).BuildWithKeys(reqs, k1, k2)
}

var errEmptyBatch = fmt.Errorf("ohash: empty batch")

// scratch is the Builder's working memory for a batch of n: work, spill,
// keep and over hold n rows; cand is a window of spill; live and dist span
// the larger of n and either tier.
type scratch struct {
	work, spill      *store.Requests
	cand             store.Requests
	keep, over, live []uint8
	dist             []uint64
}

// buildInto runs the oblivious construction into t, whose tiers must be
// zeroed and sized to its geometry. No sort touches padding: each tier
// sorts only its real rows by (bucket, key), keeps the first Z per bucket,
// and routes those into their bucket slots with one oblivious expansion.
func buildInto(t *Table, reqs *store.Requests, rec *trace.Recorder, sc *scratch) error {
	g := t.Geom
	n := reqs.Len()
	work, spill := sc.work, sc.spill
	work.Rec, spill.Rec = rec, rec

	// ---- Tier 1 ----
	for i := 0; i < n; i++ {
		work.CopyRowPlain(i, reqs, i)
		work.Sub[i] = crypt.SipBucket(t.K1, work.Key[i], g.B1)
		work.Tag[i] = 1
	}
	obliv.Sort(store.BySubKey{Requests: work})
	markRuns(work.Sub, g.Z1, sc.keep, sc.dist)
	var kept uint64
	for i, k := range sc.keep {
		sc.over[i] = obliv.Not(k) // real but not placed in tier 1
		kept += uint64(k)
	}
	spill.CopyPrefix(work)
	obliv.Compact(work, sc.keep)
	place(t.Tier1, work, kept, g.Z1, rec, sc)

	// ---- Tier 2 ----
	// Erase the non-overflow rows of the spill copy, then compact overflow
	// to the front and truncate to the public capacity C2.
	for i := 0; i < n; i++ {
		notOv := obliv.Not(sc.over[i])
		obliv.CondSetU64(notOv, &spill.Key[i], padKey(uint64(1<<40)+uint64(i)))
		obliv.CondSetU8(notOv, &spill.Tag[i], 0)
	}
	obliv.Compact(spill, sc.over)
	// Any occupied row past C2 is lost: the negligible failure event.
	lost := 0
	for i := g.C2; i < n; i++ {
		lost += int(spill.Tag[i])
	}
	if lost > 0 {
		return fmt.Errorf("%w: tier-2 capacity exceeded by %d", ErrOverflow, lost)
	}

	spill.ViewInto(&sc.cand, 0, minInt(g.C2, n))
	cand := &sc.cand
	cand.Rec = rec
	var nReal uint64
	for i := 0; i < cand.Len(); i++ {
		// Real overflow rows hash into [0,B2); erased rows go to the
		// sentinel bucket B2, selected branch-free, so they sort last.
		h := crypt.SipBucket(t.K2, cand.Key[i], g.B2)
		cand.Sub[i] = uint32(obliv.SelectU64(cand.Tag[i], uint64(g.B2), uint64(h)))
		nReal += uint64(cand.Tag[i])
	}
	obliv.Sort(store.BySubKey{Requests: cand})

	keep2 := sc.keep[:cand.Len()]
	markRuns(cand.Sub, g.Z2, keep2, sc.dist)
	lost = 0
	for i := range keep2 {
		// Rows in the sentinel bucket are never kept.
		inRange := obliv.LtU64(uint64(cand.Sub[i]), uint64(g.B2))
		keep2[i] &= inRange
		lost += int(cand.Tag[i] & obliv.Not(keep2[i]))
	}
	if lost > 0 {
		return fmt.Errorf("%w: tier-2 bucket exceeded by %d", ErrOverflow, lost)
	}
	// Every real row is kept, and the sentinel rows sort last, so the real
	// rows are a prefix.
	place(t.Tier2, cand, nReal, g.Z2, rec, sc)
	return nil
}

// place routes the first k (secret) rows of src — sorted by (Sub, Key), at
// most z per Sub — into tier's bucket slots: the r-th row of bucket b lands
// in slot b·z + r. tier must be zeroed. Empty slots get padding rows (Tag 0,
// pad key, zeroed fields and data), so no request field lingers where the
// expansion passed; every slot's Sub is its bucket.
func place(tier, src *store.Requests, k uint64, z int, rec *trace.Recorder, sc *scratch) {
	m := tier.Len()
	c := minInt(src.Len(), m) // k <= c: at most z real rows per bucket
	live, dist := sc.live[:m], sc.dist[:m]
	// dist[:c] = rank within the run of equal Sub (live is scratch here).
	markRuns(src.Sub[:c], z, live[:c], dist[:c])
	tier.Rec = rec
	for i := 0; i < m; i++ {
		tier.Key[i] = padKey(uint64(i))
		l := obliv.LtU64(uint64(i), k)
		live[i] = l
		if i < c {
			tier.OCopyRowFrom(l, i, src, i)
			dist[i] = uint64(src.Sub[i])*uint64(z) + dist[i] - uint64(i)
		}
		dist[i] &= obliv.Mask64(l)
	}
	obliv.Expand(tier, live, dist)
	for i := range tier.Sub {
		tier.Sub[i] = uint32(i / z)
	}
}

// Buckets returns the row ranges [lo1,hi1) in Tier1 and [lo2,hi2) in Tier2
// that a lookup of id must scan in full. The bucket indices are a function
// of the per-batch secret hash keys and id; revealing them is simulatable
// from public information because keys are fresh and each id is looked up
// at most once per batch (paper §5).
func (t *Table) Buckets(id uint64) (lo1, hi1, lo2, hi2 int) {
	b1 := int(crypt.SipBucket(t.K1, id, t.Geom.B1))
	b2 := int(crypt.SipBucket(t.K2, id, t.Geom.B2))
	return b1 * t.Geom.Z1, (b1 + 1) * t.Geom.Z1, b2 * t.Geom.Z2, (b2 + 1) * t.Geom.Z2
}

// Extract obliviously compacts the occupied slots of both tiers to recover
// exactly n rows — the batch requests, now carrying whatever responses the
// subORAM scan deposited in them. The table is consumed. The result is drawn
// from the table's arena pool; the caller owns it and may release it.
func (t *Table) Extract() *store.Requests {
	pool := t.pool
	if pool == nil {
		pool = arena.Default
	}
	n1, n2 := t.Tier1.Len(), t.Tier2.Len()
	all := pool.GetRequests(n1+n2, t.Tier1.BlockSize)
	all.CopyRowsPlain(0, t.Tier1)
	all.CopyRowsPlain(n1, t.Tier2)
	all.Rec = t.Tier1.Rec
	marks := pool.GetBits(n1 + n2)
	copy(marks, all.Tag)
	obliv.Compact(all, marks)
	pool.PutBits(marks)
	all.Resize(t.Geom.N)
	return all
}

// markRuns sets rank[i] to the rank of row i within its run of equal Sub
// values and keep[i] = 1 iff that rank is below z. Branch-free: run
// boundaries and ranks are secret.
func markRuns(sub []uint32, z int, keep []uint8, rank []uint64) {
	var cnt uint64
	prev := ^uint64(0)
	for i := range sub {
		s := uint64(sub[i])
		newRun := obliv.NeqU64(s, prev)
		cnt = obliv.SelectU64(newRun, cnt, 0)
		keep[i] = obliv.LtU64(cnt, uint64(z))
		rank[i] = cnt
		cnt++
		prev = s
	}
}

func padKey(i uint64) uint64 { return store.DummyKeyBit | TableDummyBit | i }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
