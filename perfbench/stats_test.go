package main

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"snoopy/internal/loadgen"
)

func TestSummarizeNeedsTenSamplesBeyondP99(t *testing.T) {
	ms := make([]float64, 999)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	if _, err := summarize(ms); err == nil {
		t.Fatal("999 samples leave 9 beyond p99; want an error")
	}
	ms = append(ms, 1000)
	s, err := summarize(ms)
	if err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if s.P50 != 500 || s.P99 != 990 {
		t.Fatalf("p50, p99 = %v, %v; want nearest-rank 500, 990", s.P50, s.P99)
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = 1
	}
	for i := 0; i < 10; i++ {
		ms[i] = math.Inf(1)
	}
	s, err := summarize(append([]float64(nil), ms...))
	if err != nil {
		t.Fatal(err)
	}
	if s.Infinite != 10 || s.P99 != 1 {
		t.Fatalf("10 failures of 1000: infinite=%d p99=%v; want 10, 1", s.Infinite, s.P99)
	}
	ms[10] = math.Inf(1)
	if s, _ = summarize(ms); !math.IsInf(s.P99, 1) {
		t.Fatalf("11 failures of 1000: p99=%v; want +Inf", s.P99)
	}

	// A failed operation enters the latencies as +Inf.
	p := &phase{ops: []op{{}, {}}, status: []uint8{stOK, stFailed}, doneAt: []int64{5e6, 1}}
	lat := p.latenciesMS()
	if lat[0] != 5 || !math.IsInf(lat[1], 1) {
		t.Fatalf("latencies = %v; want [5 +Inf]", lat)
	}
}

func TestSummarizeWindowsTakesMedianAcrossWindows(t *testing.T) {
	window := func(tail float64) []float64 {
		ms := make([]float64, 1000)
		for i := range ms {
			ms[i] = 10
		}
		for i := 0; i < 20; i++ {
			ms[i] = tail
		}
		return ms
	}
	s, err := summarizeWindows([][]float64{window(50), window(500), window(60)})
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 10 || s.P99 != 60 || s.Samples != 3000 || s.Windows != 3 {
		t.Fatalf("summary %+v; want p50 10, p99 60 (the median window), 3000 samples in 3 windows", s)
	}
	if _, err := summarizeWindows([][]float64{window(50), window(50)[:999]}); err == nil {
		t.Fatal("a window of 999 samples passed the tail rule")
	}

	// Operations split by intended send time into equal windows of at
	// least a second.
	p := &phase{sched: 3 * time.Second}
	for i := 0; i < 9000; i++ {
		p.ops = append(p.ops, op{at: time.Duration(i) * time.Second / 3000})
	}
	p.status = make([]uint8, len(p.ops))
	p.doneAt = make([]int64, len(p.ops))
	if w := p.windowLatenciesMS(); len(w) != 3 || len(w[0]) != 3000 || len(w[2]) != 3000 {
		t.Fatalf("windows of %d ops over 3 s: %d windows", len(p.ops), len(w))
	}
}

func TestBacklogGrows(t *testing.T) {
	const rate, epoch = 1000.0, 100 * time.Millisecond // 100 arrivals an epoch
	steady := make([]int, 40)
	for i := range steady {
		steady[i] = []int{20, 60, 110, 150}[i%4]
	}
	if backlogGrows(steady, rate, epoch) {
		t.Fatal("an oscillating backlog was judged growing")
	}
	growing := make([]int, 40)
	for i := range growing {
		growing[i] = steady[i] + 15*i // 60 more an epoch
	}
	if !backlogGrows(growing, rate, epoch) {
		t.Fatal("a backlog growing by 60% of the arrivals was not detected")
	}
}

func TestSendLagValidity(t *testing.T) {
	if !sendLagValid(4.9, 50*time.Millisecond) {
		t.Fatal("4.9 ms lag at T=50ms should be valid")
	}
	if sendLagValid(5.1, 50*time.Millisecond) {
		t.Fatal("5.1 ms lag at T=50ms exceeds T/10")
	}
	p := &phase{ops: []op{{at: time.Millisecond}}, submitAt: []int64{int64(3 * time.Millisecond)}}
	if lag := p.sendLagMS(); lag[0] != 2 {
		t.Fatalf("send lag = %v ms; want 2", lag[0])
	}
}

func TestLastWritesAllowsOnlyConcurrentLastWrites(t *testing.T) {
	p := &phase{
		ops: []op{
			{key: 1, write: true}, // acknowledged before op 1 was sent
			{key: 1, write: true},
			{key: 1, write: true}, // concurrent with op 1
			{key: 2, write: true}, // failed: any version of key 2 is possible
			{key: 3},
		},
		submitAt: []int64{0, 10, 5, 0, 0},
		doneAt:   []int64{8, 20, 20, 1, 1},
		status:   []uint8{stOK, stOK, stOK, stFailed, stOK},
	}
	got := lastWrites(p)
	if len(got) != 2 {
		t.Fatalf("keys = %v; want 1 and 2", got)
	}
	if got[1][p.version(0)] || !got[1][p.version(1)] || !got[1][p.version(2)] {
		t.Fatalf("key 1 allows %v; want versions of ops 1 and 2 only", got[1])
	}
	if v, ok := got[2]; !ok || v != nil {
		t.Fatalf("key 2 = %v; want nil (any version)", v)
	}
}

func TestCheckBlock(t *testing.T) {
	b := make([]byte, 160)
	fillBlock(b, 7, 3)
	if ver, err := checkBlock(b, 7); err != nil || ver != 3 {
		t.Fatalf("checkBlock = %d, %v; want 3, nil", ver, err)
	}
	if _, err := checkBlock(b, 8); err == nil {
		t.Fatal("a block of key 7 passed as key 8")
	}
	b[8] ^= 1
	if _, err := checkBlock(b, 7); err == nil {
		t.Fatal("a torn block passed")
	}
}

// fakeStore serves at most capacity operations per second: every epoch it
// answers the oldest capacity·epoch pending operations. Reads answer the
// key's last written block; misroute, when set, answers with key+1's.
type fakeStore struct {
	mu       sync.Mutex
	queue    []fakeReq
	values   map[uint64][]byte
	block    int
	misroute bool
	stop     chan struct{}
	done     chan struct{}
}

type fakeReq struct {
	key   uint64
	value []byte
	reply chan []byte
}

func newFakeStore(capacity float64, epoch time.Duration, block int) *fakeStore {
	f := &fakeStore{values: map[uint64][]byte{}, block: block, stop: make(chan struct{}), done: make(chan struct{})}
	perEpoch := int(capacity * epoch.Seconds())
	go func() {
		defer close(f.done)
		tick := time.NewTicker(epoch)
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				f.mu.Lock()
				for _, r := range f.queue {
					close(r.reply)
				}
				f.queue = nil
				f.mu.Unlock()
				return
			case <-tick.C:
				f.mu.Lock()
				n := min(perEpoch, len(f.queue))
				batch := f.queue[:n]
				f.queue = append([]fakeReq(nil), f.queue[n:]...)
				for _, r := range batch {
					r.reply <- f.answer(r)
				}
				f.mu.Unlock()
			}
		}
	}()
	return f
}

func (f *fakeStore) answer(r fakeReq) []byte {
	key := r.key
	if f.misroute {
		key++
	}
	prev, ok := f.values[key]
	if !ok {
		prev = make([]byte, f.block)
		fillBlock(prev, key, 0)
	}
	if r.value != nil {
		f.values[r.key] = r.value
	}
	return prev
}

func (f *fakeStore) submit(key uint64, value []byte) (func() ([]byte, bool, error), error) {
	r := fakeReq{key: key, value: value, reply: make(chan []byte, 1)}
	f.mu.Lock()
	f.queue = append(f.queue, r)
	f.mu.Unlock()
	return func() ([]byte, bool, error) {
		v, ok := <-r.reply
		if !ok {
			return nil, false, errors.New("fake store closed")
		}
		return v, true, nil
	}, nil
}

func (f *fakeStore) ReadAsync(key uint64) (func() ([]byte, bool, error), error) {
	return f.submit(key, nil)
}

func (f *fakeStore) WriteAsync(key uint64, value []byte) (func() ([]byte, bool, error), error) {
	return f.submit(key, value)
}

func (f *fakeStore) close() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
}

var testWorkload = &workload{
	Name: "test", Objects: 1000, BlockSize: 32, Epoch: 20 * time.Millisecond,
	Keys: loadgen.KeysUniform, WriteFrac: 0.5, Limit: 100 * time.Millisecond,
}

func runFake(t *testing.T, f *fakeStore, rate float64, d time.Duration) *phase {
	t.Helper()
	ops, err := planOps(testWorkload, rate, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	return runPhase(f, ops, d, phaseConfig{
		block: testWorkload.BlockSize, epoch: testWorkload.Epoch, drain: 10 * time.Second,
	}, f.close)
}

func TestMaxRateSearchFindsFakeCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs open-loop probes for several seconds")
	}
	const capacity = 3000.0
	w := testWorkload
	trail, err := searchMaxRate(func(rate float64) (probeVerdict, error) {
		p := runFake(t, newFakeStore(capacity, w.Epoch, w.BlockSize), rate, 1500*time.Millisecond)
		return verdict(p, rate, w.Limit, w.Epoch)
	}, 2000, 1.25, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range trail {
		t.Logf("probe %+v", v)
	}
	best := maxRate(trail, float64(w.Limit)/float64(time.Millisecond))
	if best < 0.8*capacity || best > 1.05*capacity {
		t.Fatalf("max rate %.0f; want within [0.8, 1.05] of the capacity %.0f", best, capacity)
	}
}

func TestSearchStepsDownUntilAProbePasses(t *testing.T) {
	const capacity = 1000.0
	trail, err := searchMaxRate(func(rate float64) (probeVerdict, error) {
		return probeVerdict{Target: rate, Offered: rate, P99: 10, Pass: rate <= capacity}, nil
	}, 8000, 1.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	last := trail[len(trail)-1]
	if !last.Pass || len(trail) > 8 {
		t.Fatalf("%d probes ending at %+v; want a passing probe within 8", len(trail), last)
	}
	if got := maxRate(trail, 100); got != last.Offered {
		t.Fatalf("maxRate = %v; want the passing probe's %v", got, last.Offered)
	}
}

func TestMaxRateInterpolatesInsideBracket(t *testing.T) {
	trail := []probeVerdict{
		{Target: 100, Offered: 100, P99: 50, Pass: true},
		{Target: 200, Offered: 200, P99: 400, Pass: false},
		{Target: 141, Offered: 140, P99: 100, Pass: true},
	}
	// p99 crosses 200 halfway, in logs, from the passing 100 to the failing
	// 400.
	want := 140 * math.Pow(200.0/140, 0.5)
	if got := maxRate(trail, 200); math.Abs(got-want) > 1e-9 {
		t.Fatalf("maxRate = %v; want %v", got, want)
	}
	// A probe that failed on backlog alone gives no crossing to interpolate.
	trail[1].P99 = 150
	if got := maxRate(trail, 200); got != 140 {
		t.Fatalf("maxRate = %v; want the highest passing rate 140", got)
	}
	if got := maxRate(trail[1:2], 200); got != 0 {
		t.Fatalf("maxRate with no passing probe = %v; want 0", got)
	}
}

func TestOverloadedFakeStoreBacklogGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an open-loop probe")
	}
	const capacity = 2000.0
	w := testWorkload
	p := runFake(t, newFakeStore(capacity, w.Epoch, w.BlockSize), 1.5*capacity, time.Second)
	v, err := verdict(p, 1.5*capacity, w.Limit, w.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Backlog || v.Pass {
		t.Fatalf("at 1.5× capacity: %+v; want a growing backlog and a failed probe", v)
	}
}

func TestRunPhaseCatchesMisroutedAnswers(t *testing.T) {
	f := newFakeStore(1e6, testWorkload.Epoch, testWorkload.BlockSize)
	f.misroute = true
	p := runFake(t, f, 2000, 200*time.Millisecond)
	_, _, _, wrong := p.counts()
	if wrong != len(p.ops) || p.firstBad.Load() == nil {
		t.Fatalf("wrong answers = %d of %d; want all", wrong, len(p.ops))
	}
}

func TestRunPhaseMarksStragglersUndelivered(t *testing.T) {
	f := newFakeStore(1, time.Hour, testWorkload.BlockSize) // never answers
	ops, err := planOps(testWorkload, 1000, 100*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := runPhase(f, ops, 100*time.Millisecond, phaseConfig{
		block: testWorkload.BlockSize, epoch: testWorkload.Epoch, drain: 50 * time.Millisecond,
	}, f.close)
	f.close()
	if _, _, undelivered, _ := p.counts(); undelivered != len(ops) {
		t.Fatalf("undelivered = %d of %d; want all", undelivered, len(ops))
	}
}
