package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"snoopy/internal/loadbalancer"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// failLeaf is a LeafBalancer stub whose BuildRun always fails — the
// chaos-injection analogue of a crashed leaf load balancer.
type failLeaf struct{ msg string }

func (d failLeaf) BuildRun(uint64, *store.Requests, int, uint64, *store.Requests) ([]uint64, error) {
	return nil, fmt.Errorf("%s", d.msg)
}

func TestTreeSystemReadWrite(t *testing.T) {
	sys := startSystem(t, Config{
		NumLoadBalancers: 2, NumSubORAMs: 3, LBLeaves: 4,
		EpochDuration: 2 * time.Millisecond,
	}, 100)
	if sys.FeedsPerPlane() != 4 {
		t.Fatalf("FeedsPerPlane = %d, want 4", sys.FeedsPerPlane())
	}
	v, found, err := sys.Read(7)
	if err != nil || !found || trimmed(v) != "init-7" {
		t.Fatalf("tree read: %q %v %v", trimmed(v), found, err)
	}
	prev, found, err := sys.Write(7, []byte("updated"))
	if err != nil || !found || trimmed(prev) != "init-7" {
		t.Fatalf("tree write: %q %v %v", trimmed(prev), found, err)
	}
	if v, _, _ := sys.Read(7); trimmed(v) != "updated" {
		t.Fatalf("read after write got %q", trimmed(v))
	}
}

func TestTreeSystemCrossFeedLastWriteWins(t *testing.T) {
	// Five same-key writes in one epoch land on random leaves of the tree.
	// Same-epoch writes are ordered (feed, local sequence) — the tree
	// analogue of the multi-plane (load balancer, sequence) order — so the
	// winner is the last write enqueued with the highest-numbered leaf that
	// received any. The pinned assignment seed makes that deterministic.
	const leaves = 4
	const seed = 7
	sys := startSystem(t, Config{
		NumLoadBalancers: 1, NumSubORAMs: 2, LBLeaves: leaves, TestLBChoiceSeed: seed,
	}, 50)
	rng := rand.New(rand.NewSource(seed))
	winner := -1
	maxFeed := -1
	var fns []func() ([]byte, bool, error)
	for i := 0; i < 5; i++ {
		fn, err := sys.WriteAsync(9, []byte(fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
		if f := rng.Intn(leaves); f >= maxFeed {
			maxFeed, winner = f, i
		}
	}
	sys.Flush()
	for _, fn := range fns {
		fn()
	}
	get, err := sys.ReadAsync(9)
	if err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	v, _, _ := get()
	if trimmed(v) != fmt.Sprintf("w%d", winner) {
		t.Fatalf("cross-feed LWW: got %q, want w%d (feed %d)", trimmed(v), winner, maxFeed)
	}
}

func TestTreeSystemManyEpochsIntegrity(t *testing.T) {
	sys := startSystem(t, Config{
		NumLoadBalancers: 2, NumSubORAMs: 3, LBLeaves: 2,
		EpochDuration: time.Millisecond, PipelineDepth: 2,
	}, 200)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * 30; i < c*30+30; i++ {
				if _, _, err := sys.Write(uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 120; i++ {
		v, found, err := sys.Read(uint64(i))
		if err != nil || !found {
			t.Fatal(err, found)
		}
		if !strings.HasPrefix(trimmed(v), fmt.Sprintf("v%d", i)) {
			t.Fatalf("key %d corrupted: %q", i, trimmed(v))
		}
	}
}

func TestTreeSystemWithACL(t *testing.T) {
	// The denied-flag plumbing is indexed by global feed, so ACL must keep
	// working when each plane has several feeds.
	sys := startSystem(t, Config{
		NumLoadBalancers: 1, NumSubORAMs: 2, LBLeaves: 3,
		EpochDuration: 2 * time.Millisecond,
	}, 50)
	if err := sys.EnableACL([]ACLRule{
		{User: 1, Object: 10, Op: store.OpRead},
	}, 1); err != nil {
		t.Fatal(err)
	}
	v, found, err := sys.ReadAs(1, 10)
	if err != nil || !found || trimmed(v) != "init-10" {
		t.Fatalf("permitted read through tree: %q %v %v", trimmed(v), found, err)
	}
	if _, found, _ := sys.ReadAs(2, 10); found {
		t.Fatal("denied read through tree reported found")
	}
}

func TestTreeInvalidFanInRejected(t *testing.T) {
	_, err := NewLocal(Config{
		BlockSize: testBlock, NumSubORAMs: 1, Lambda: 32,
		LBLeaves: 4, LBFanIn: 2,
	})
	if err == nil {
		t.Fatal("LBFanIn < LBLeaves accepted")
	}
}

// TestTreeLeafKillFailsOnlyItsClients is the leaf-level chaos test: with one
// leaf of the aggregation tree dead, exactly the clients assigned to that
// leaf fail — with the leaf's error, in the same epoch — while every other
// client completes normally, and the failure shows up in HealthStats for a
// supervisor to act on. ResetLeaf then repairs the plane in place. The
// single-leaf plane (the default shape) is one more input: its only leaf
// dies, so every client fails, and the same repair path applies.
func TestTreeLeafKillFailsOnlyItsClients(t *testing.T) {
	for _, tc := range []struct{ leaves, dead int }{{4, 2}, {1, 0}} {
		t.Run(fmt.Sprintf("leaves=%d", tc.leaves), func(t *testing.T) {
			testLeafKill(t, tc.leaves, tc.dead)
		})
	}
}

func testLeafKill(t *testing.T, leaves, dead int) {
	const seed = 1
	sys := startSystem(t, Config{
		NumLoadBalancers: 1, NumSubORAMs: 3, LBLeaves: leaves,
		TestLBChoiceSeed: seed,
	}, 64)

	// The client→feed assignment is the pinned rng's Intn draw sequence;
	// replicate it so the test knows each request's leaf exactly.
	rng := rand.New(rand.NewSource(seed))
	feedOf := func() int { return rng.Intn(1 * leaves) }

	// Warm-up epoch through the healthy tree.
	get, err := sys.ReadAsync(0)
	if err != nil {
		t.Fatal(err)
	}
	feedOf()
	sys.Flush()
	if _, _, err := get(); err != nil {
		t.Fatal(err)
	}

	tree := sys.LoadBalancerTree(0)
	if tree == nil {
		t.Fatal("LoadBalancerTree returned nil")
	}
	downMsg := fmt.Sprintf("leaf %d down", dead)
	tree.ReplaceLeaf(dead, failLeaf{msg: "injected: " + downMsg})

	const n = 48
	fns := make([]func() ([]byte, bool, error), n)
	feeds := make([]int, n)
	for i := 0; i < n; i++ {
		fns[i], err = sys.ReadAsync(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		feeds[i] = feedOf()
	}
	sys.Flush() // one epoch resolves every request, dead leaf included
	onDead := 0
	for i := 0; i < n; i++ {
		v, found, err := fns[i]()
		if feeds[i] == dead {
			onDead++
			if err == nil || !strings.Contains(err.Error(), downMsg) {
				t.Fatalf("request %d on dead leaf: err=%v, want injected leaf error", i, err)
			}
			continue
		}
		if err != nil || !found || trimmed(v) != fmt.Sprintf("init-%d", i) {
			t.Fatalf("request %d on healthy leaf %d: %q %v %v", i, feeds[i], trimmed(v), found, err)
		}
	}
	if onDead == 0 {
		t.Fatal("no request landed on the dead leaf; pick another seed")
	}

	h := sys.Health()
	if len(h.LeafConsecutiveFailures) != leaves {
		t.Fatalf("leaf health has %d entries, want %d", len(h.LeafConsecutiveFailures), leaves)
	}
	for g := 0; g < leaves; g++ {
		wantFail := uint64(0)
		if g == dead {
			wantFail = 1
		}
		if h.LeafTotalFailures[g] != wantFail {
			t.Fatalf("LeafTotalFailures[%d] = %d, want %d", g, h.LeafTotalFailures[g], wantFail)
		}
	}
	if h.LeafConsecutiveFailures[dead] != 1 || h.Healthy() {
		t.Fatalf("dead leaf not reflected in health: %+v", h)
	}

	// Repair in place: a fresh leaf serves and the feed's failure run is
	// cleared at once, before any further epoch.
	sys.ResetLeaf(0, dead)
	if _, fresh := tree.Leaf(dead).(*loadbalancer.Leaf); !fresh {
		t.Fatalf("ResetLeaf left %T serving leaf %d", tree.Leaf(dead), dead)
	}
	if c := sys.Health().LeafConsecutiveFailures[dead]; c != 0 {
		t.Fatalf("ResetLeaf left a failure run of %d on feed %d", c, dead)
	}
	for i := 0; i < n; i++ {
		fns[i], err = sys.ReadAsync(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	for i := 0; i < n; i++ {
		v, found, err := fns[i]()
		if err != nil || !found || trimmed(v) != fmt.Sprintf("init-%d", i) {
			t.Fatalf("post-repair request %d: %q %v %v", i, trimmed(v), found, err)
		}
	}
	if h := sys.Health(); !h.Healthy() {
		t.Fatalf("health did not converge after ResetLeaf: %+v", h)
	}
}

// TestLBMakeBatchObservedEveryShape: the plane records lb_make_batch once per
// epoch (covering its whole build) and exports its leaf count at every tree
// shape, the single-leaf default included.
func TestLBMakeBatchObservedEveryShape(t *testing.T) {
	const epochs = 5
	for _, leaves := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		sys := startSystem(t, Config{
			NumLoadBalancers: 1, NumSubORAMs: 2, LBLeaves: leaves, Telemetry: reg,
		}, 16)
		for e := 0; e < epochs; e++ {
			get, err := sys.ReadAsync(uint64(e))
			if err != nil {
				t.Fatal(err)
			}
			sys.Flush()
			if _, _, err := get(); err != nil {
				t.Fatal(err)
			}
		}
		if got := reg.Histogram("lb_make_batch", nil).Count(); got != epochs {
			t.Fatalf("LBLeaves=%d: lb_make_batch observed %d times over %d epochs", leaves, got, epochs)
		}
		if got := reg.Gauge("snoopy_config_lb_leaves").Value(); got != int64(leaves) {
			t.Fatalf("LBLeaves=%d: snoopy_config_lb_leaves = %d", leaves, got)
		}
	}
}
