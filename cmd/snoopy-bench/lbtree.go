// The -lbtree mode benchmarks the load-balancer plane against its reference:
// the same R requests are batched by the one-feed LoadBalancer.MakeBatches
// ("monolithic": one oblivious O(m log² m) sort; the reference, not a
// shipped plane) and by aggregation trees of 1, 2, 4 and 8 leaves (per-leaf
// sorts of R/L plus, from 2 leaves on, the root's O(m log m) merge of
// already-sorted runs; a 1-leaf tree's run is the batch set, so its root does
// nothing). The report records measured wall time and steady-state
// allocations per MakeBatches, alongside the exact compare-exchange counts of
// the root-level oblivious work — the merge must strictly undercut the
// reference sort from 4 leaves on, with zero steady-state allocations at
// every level.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/arena"
	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
)

type lbtreeEntry struct {
	Leaves   int   `json:"leaves"`
	NsOp     int64 `json:"ns_op"`
	BOp      int64 `json:"b_op"`
	AllocsOp int64 `json:"allocs_op"`
	// RootCompareExchanges is the oblivious work done at the root level:
	// the full sort for the reference build, the merge of per-leaf sorted
	// runs for a tree (zero at 1 leaf). A pure function of public
	// parameters.
	RootCompareExchanges int `json:"root_compare_exchanges"`
	// RootFractionOfMonolithicSort = RootCompareExchanges / monolithic
	// sort compare-exchanges; < 1 means the merge beats the re-sort.
	RootFractionOfMonolithicSort float64 `json:"root_fraction_of_monolithic_sort"`
}

type lbtreeReport struct {
	Config struct {
		Requests  int `json:"requests"`
		SubORAMs  int `json:"suborams"`
		Lambda    int `json:"lambda"`
		BlockSize int `json:"block_size"`
	} `json:"config"`
	Monolithic lbtreeEntry   `json:"monolithic"`
	Tree       []lbtreeEntry `json:"tree"`
}

// runLBTree benchmarks reference vs tree batch formation and writes the
// comparison to path (results/BENCH_lbtree.json via scripts/bench.sh).
func runLBTree(path string) error {
	const (
		reqCount = 4096
		subs     = 4
		lambda   = 128
		block    = 160
	)
	var rep lbtreeReport
	rep.Config.Requests = reqCount
	rep.Config.SubORAMs = subs
	rep.Config.Lambda = lambda
	rep.Config.BlockSize = block

	key := crypt.MustNewKey()
	rng := rand.New(rand.NewSource(65))
	all := store.NewRequests(reqCount, block)
	for i := 0; i < reqCount; i++ {
		all.SetRow(i, store.OpRead, rng.Uint64()%uint64(4*reqCount), 0, uint64(i), uint64(i), nil)
	}

	alpha := batch.Size(reqCount, subs, lambda)
	if alpha == 0 {
		alpha = 1
	}
	monoSortCX := obliv.SortCost(reqCount + alpha*subs)

	cfg := loadbalancer.Config{BlockSize: block, NumSubORAMs: subs, Lambda: lambda, SortWorkers: 1}

	monoRes := testing.Benchmark(func(b *testing.B) {
		c := cfg
		c.Pool = arena.NewPool()
		lb := loadbalancer.New(c, key)
		warm, err := lb.MakeBatches(all)
		if err != nil {
			b.Fatal(err)
		}
		warm.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bb, err := lb.MakeBatches(all)
			if err != nil {
				b.Fatal(err)
			}
			bb.Release()
		}
	})
	rep.Monolithic = lbtreeEntry{
		Leaves:                       1,
		NsOp:                         monoRes.NsPerOp(),
		BOp:                          monoRes.AllocedBytesPerOp(),
		AllocsOp:                     monoRes.AllocsPerOp(),
		RootCompareExchanges:         monoSortCX,
		RootFractionOfMonolithicSort: 1,
	}
	fmt.Printf("monolithic:  %12d ns/op  %6d B/op  %4d allocs/op  (sort: %d compare-exchanges)\n",
		rep.Monolithic.NsOp, rep.Monolithic.BOp, rep.Monolithic.AllocsOp, monoSortCX)

	for _, leaves := range []int{1, 2, 4, 8} {
		feeds, rates := splitLBTreeFeeds(all, leaves, block)
		rootCX := 0 // one leaf: no root merge
		if leaves > 1 {
			rootCX = obliv.MergeSortedCost(loadbalancer.TreeRunLens(rates, subs, lambda))
		}
		res := testing.Benchmark(func(b *testing.B) {
			c := cfg
			c.Pool = arena.NewPool()
			tree, err := loadbalancer.NewTree(loadbalancer.TreeConfig{Config: c, Leaves: leaves}, key)
			if err != nil {
				b.Fatal(err)
			}
			warm, feedErrs, err := tree.MakeBatches(0, feeds)
			if err != nil || feedErrs != nil {
				b.Fatal(err, feedErrs)
			}
			warm.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bb, _, err := tree.MakeBatches(uint64(i)+1, feeds)
				if err != nil {
					b.Fatal(err)
				}
				bb.Release()
			}
		})
		e := lbtreeEntry{
			Leaves:                       leaves,
			NsOp:                         res.NsPerOp(),
			BOp:                          res.AllocedBytesPerOp(),
			AllocsOp:                     res.AllocsPerOp(),
			RootCompareExchanges:         rootCX,
			RootFractionOfMonolithicSort: float64(rootCX) / float64(monoSortCX),
		}
		rep.Tree = append(rep.Tree, e)
		fmt.Printf("tree-%d:      %12d ns/op  %6d B/op  %4d allocs/op  (root merge: %d CX, %.1f%% of monolithic sort)\n",
			leaves, e.NsOp, e.BOp, e.AllocsOp, rootCX, 100*e.RootFractionOfMonolithicSort)
		if leaves >= 4 && rootCX >= monoSortCX {
			return fmt.Errorf("root merge at %d leaves (%d CX) does not beat the monolithic sort (%d CX)",
				leaves, rootCX, monoSortCX)
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// splitLBTreeFeeds deals the request set round-robin into per-leaf feeds,
// the way clients spread across the leaves of a plane, and returns the
// public per-feed rates alongside.
func splitLBTreeFeeds(all *store.Requests, leaves, block int) ([]*store.Requests, []int) {
	n := all.Len()
	rates := make([]int, leaves)
	for i := 0; i < n; i++ {
		rates[i%leaves]++
	}
	feeds := make([]*store.Requests, leaves)
	fill := make([]int, leaves)
	for f := range feeds {
		feeds[f] = store.NewRequests(rates[f], block)
	}
	for i := 0; i < n; i++ {
		f := i % leaves
		j := fill[f]
		feeds[f].SetRow(j, all.Op[i], all.Key[i], 0, uint64(j), uint64(j), all.Block(i))
		fill[f]++
	}
	return feeds, rates
}
