package ohash

import (
	"snoopy/internal/crypt"
	"snoopy/internal/store"
)

// Builder amortizes the table-construction memory across batches: a subORAM
// processes one batch per load balancer per epoch forever, and per-batch
// allocation of the multi-megabyte work arrays dominates GC pressure at high
// epoch rates. The Builder reuses everything — scratch arrays, the tier
// storage, and the Table struct itself — so a steady-state Build performs
// zero heap allocations once warmed up.
//
// Ownership contract: the Table returned by Build (including its tiers) is
// INVALIDATED by the next Build call. The caller must finish with it —
// including Extract, whose output is independently pooled — before building
// again. A Builder is NOT safe for concurrent use; give each goroutine its
// own.
type Builder struct {
	p Params

	sc    scratch
	tier1 *store.Requests
	tier2 *store.Requests
	tbl   Table
}

// NewBuilder creates a Builder with the given geometry parameters.
func NewBuilder(p Params) *Builder {
	if p.Z1 == 0 {
		rec, pool := p.Rec, p.Pool
		p = DefaultParams()
		p.Rec, p.Pool = rec, pool
	}
	return &Builder{p: p}
}

// ensure returns a zero-initialized request set of exactly n rows, reusing
// the previous allocation when the geometry matches.
func ensure(buf **store.Requests, n, block int) *store.Requests {
	b := *buf
	if b == nil || b.Len() != n || b.BlockSize != block {
		b = store.NewRequests(n, block)
		*buf = b
		return b
	}
	b.Reset()
	return b
}

// ensureSlice sets *buf to n zeroed elements, reusing its backing array
// when it is large enough.
func ensureSlice[T uint8 | uint64](buf *[]T, n int) {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
}

// Build constructs a table like the package-level Build but reusing the
// Builder's scratch buffers, tier storage, and Table struct. The returned
// table is valid only until the next Build call.
func (b *Builder) Build(reqs *store.Requests) (*Table, error) {
	return b.BuildWithKeys(reqs, crypt.MustNewSipKey(), crypt.MustNewSipKey())
}

// BuildWithKeys is Build with caller-chosen hash keys. It exists so tests
// can fix the keys and verify that, keys held equal, the construction and
// scan traces are independent of request contents (the simulator argument
// of §B.5). Production code must use Build.
func (b *Builder) BuildWithKeys(reqs *store.Requests, k1, k2 crypt.SipKey) (*Table, error) {
	n := reqs.Len()
	if n == 0 {
		return nil, errEmptyBatch
	}
	g := b.p.GeometryFor(n)
	b.tbl = Table{Geom: g, K1: k1, K2: k2, pool: b.p.pool()}
	t := &b.tbl
	t.Tier1 = ensure(&b.tier1, g.B1*g.Z1, reqs.BlockSize)
	t.Tier2 = ensure(&b.tier2, g.B2*g.Z2, reqs.BlockSize)

	sc := &b.sc
	ensure(&sc.work, n, reqs.BlockSize)
	ensure(&sc.spill, n, reqs.BlockSize)
	ensureSlice(&sc.keep, n)
	ensureSlice(&sc.over, n)
	m := max(n, t.Tier1.Len(), t.Tier2.Len())
	ensureSlice(&sc.live, m)
	ensureSlice(&sc.dist, m)
	if err := buildInto(t, reqs, b.p.Rec, sc); err != nil {
		return nil, err
	}
	return t, nil
}
