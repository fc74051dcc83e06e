package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"snoopy/internal/loadgen"
)

// asyncStore is the client surface the generator drives: the non-blocking
// submit half of *snoopy.Store.
type asyncStore interface {
	ReadAsync(key uint64) (func() ([]byte, bool, error), error)
	WriteAsync(key uint64, value []byte) (func() ([]byte, bool, error), error)
}

// op is one store operation on the schedule.
type op struct {
	at    time.Duration // intended send offset from the phase start
	key   uint64
	write bool
}

// collectors is the number of goroutines that wait for answers.
const collectors = 4

// sessions is the simulated user population of every schedule; with
// Poisson arrivals it only labels requests.
const sessions = 100_000

// planOps expands a loadgen plan into store operations: a read-modify-write
// event becomes a read and a write of the same key at the same instant.
func planOps(w *workload, rate float64, d time.Duration, seed int64) ([]op, error) {
	events, _, err := loadgen.Plan(loadgen.Config{
		Scenario: w.scenario(),
		Sessions: sessions,
		Rate:     rate,
		Duration: d,
		Objects:  w.Objects,
		Seed:     seed,
		Epoch:    w.Epoch,
	})
	if err != nil {
		return nil, err
	}
	ops := make([]op, 0, len(events)+len(events)/4)
	for _, ev := range events {
		ops = append(ops, op{at: ev.At, key: ev.Key, write: ev.Write})
		if ev.Update {
			ops = append(ops, op{at: ev.At, key: ev.Key, write: true})
		}
	}
	return ops, nil
}

// Block layout: every value names its key and version, so a reply that
// belongs to another key or a torn block is caught.
//
//	[0:8)       key
//	[8:16)      version (0 for the initial load)
//	[len-8:len) key·φ ⊕ version
const phi = 0x9e3779b97f4a7c15

func fillBlock(b []byte, key, ver uint64) {
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint64(b[8:], ver)
	binary.LittleEndian.PutUint64(b[len(b)-8:], key*phi^ver)
}

// checkBlock verifies that v is a well-formed block of key and returns its
// version.
func checkBlock(v []byte, key uint64) (uint64, error) {
	if len(v) < 24 {
		return 0, fmt.Errorf("key %d: reply of %d bytes", key, len(v))
	}
	got := binary.LittleEndian.Uint64(v[0:])
	ver := binary.LittleEndian.Uint64(v[8:])
	if got != key {
		return 0, fmt.Errorf("key %d: reply holds key %d", key, got)
	}
	if binary.LittleEndian.Uint64(v[len(v)-8:]) != key*phi^ver {
		return 0, fmt.Errorf("key %d: torn reply (version %d)", key, ver)
	}
	return ver, nil
}

// Per-operation status after a phase.
const (
	stPending     = iota
	stOK          // answered, answer checked
	stFailed      // the store returned an error
	stUndelivered // no answer before the drain deadline
	stWrong       // answered with a value of another key or a torn block
)

// phaseConfig parameterizes one open-loop phase.
type phaseConfig struct {
	block int
	epoch time.Duration
	// drain bounds the wait for answers after the last scheduled send;
	// whatever is still outstanding then is undelivered.
	drain time.Duration
	// verBase tags this phase's write versions (version = verBase+i+1).
	verBase uint64
	// timeSubmits records how long each submit call took.
	timeSubmits bool
}

// phase is the record of one open-loop run of a schedule.
type phase struct {
	ops       []op
	start     time.Time
	sched     time.Duration // schedule length
	submitAt  []int64       // actual send offset, ns
	submitDur []int64       // submit call duration, ns (timeSubmits only)
	doneAt    []int64       // answer offset, ns
	status    []uint8
	backlog   []int // outstanding operations sampled every epoch/4
	firstBad  atomic.Pointer[string]
	verBase   uint64
}

// runPhase drives st through ops on the wall clock without waiting for
// answers, then waits up to cfg.drain for the answers. If the deadline
// passes it calls stop (which must make every outstanding wait return) and
// marks the stragglers undelivered. Every answer is checked against the
// key it answers.
func runPhase(st asyncStore, ops []op, sched time.Duration, cfg phaseConfig, stop func()) *phase {
	n := len(ops)
	p := &phase{
		ops:      ops,
		sched:    sched,
		submitAt: make([]int64, n),
		doneAt:   make([]int64, n),
		status:   make([]uint8, n),
		verBase:  cfg.verBase,
	}
	if cfg.timeSubmits {
		p.submitDur = make([]int64, n)
	}
	var (
		wg       sync.WaitGroup
		sent     atomic.Int64
		finished atomic.Int64
		cutoff   atomic.Bool // set once the drain deadline passed
	)
	p.start = time.Now()

	sampleStop := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		t := time.NewTicker(cfg.epoch / 4)
		defer t.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-t.C:
				p.backlog = append(p.backlog, int(sent.Load()-finished.Load()))
			}
		}
	}()

	type pending struct {
		i    int
		wait func() ([]byte, bool, error)
	}
	// Answers arrive an epoch at a time, in submission order, so a few
	// collectors taking pending operations in order wait on the oldest
	// and then drain the rest of its epoch. The queue holds every
	// operation of the phase, so the dispatcher never blocks on it.
	queue := make(chan pending, n)
	collect := func() {
		defer wg.Done()
		for q := range queue {
			i := q.i
			v, found, err := q.wait()
			p.doneAt[i] = int64(time.Since(p.start))
			switch {
			case err != nil && cutoff.Load():
				p.status[i] = stUndelivered
			case err != nil:
				p.status[i] = stFailed
			case !found:
				p.bad(i, fmt.Errorf("key %d: not found", ops[i].key))
			default:
				if _, cerr := checkBlock(v, ops[i].key); cerr != nil {
					p.bad(i, cerr)
				} else {
					p.status[i] = stOK
				}
			}
			finished.Add(1)
		}
	}
	wg.Add(collectors)
	for c := 0; c < collectors; c++ {
		go collect()
	}

	for i := range ops {
		o := &ops[i]
		if d := time.Until(p.start.Add(o.at)); d > time.Millisecond {
			time.Sleep(d)
		}
		t0 := time.Now()
		var (
			wait func() ([]byte, bool, error)
			err  error
		)
		if o.write {
			v := make([]byte, cfg.block)
			fillBlock(v, o.key, p.version(i))
			wait, err = st.WriteAsync(o.key, v)
		} else {
			wait, err = st.ReadAsync(o.key)
		}
		p.submitAt[i] = int64(t0.Sub(p.start))
		if p.submitDur != nil {
			p.submitDur[i] = int64(time.Since(t0))
		}
		sent.Add(1)
		if err != nil {
			p.doneAt[i] = p.submitAt[i]
			p.status[i] = stFailed
			finished.Add(1)
			continue
		}
		queue <- pending{i, wait}
	}
	close(queue)
	close(sampleStop)
	<-sampleDone

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.Until(p.start.Add(sched + cfg.drain))
	select {
	case <-done:
	case <-time.After(deadline):
		cutoff.Store(true)
		stop()
		<-done
	}
	return p
}

// version is the version written by write operation i.
func (p *phase) version(i int) uint64 { return p.verBase + uint64(i) + 1 }

// bad marks operation i as wrongly answered and keeps the first reason.
func (p *phase) bad(i int, err error) {
	p.status[i] = stWrong
	msg := err.Error()
	p.firstBad.CompareAndSwap(nil, &msg)
}

// counts tallies the operations by status.
func (p *phase) counts() (ok, failed, undelivered, wrong int) {
	for _, s := range p.status {
		switch s {
		case stOK:
			ok++
		case stFailed:
			failed++
		case stUndelivered:
			undelivered++
		case stWrong:
			wrong++
		}
	}
	return
}

// latenciesMS returns every operation's latency in milliseconds, timed from
// its intended send time; an operation without a checked answer is +Inf.
func (p *phase) latenciesMS() []float64 {
	ms := make([]float64, len(p.ops))
	for i, o := range p.ops {
		if p.status[i] != stOK {
			ms[i] = math.Inf(1)
			continue
		}
		ms[i] = float64(p.doneAt[i]-int64(o.at)) / 1e6
	}
	return ms
}

// windowLatenciesMS splits latenciesMS by intended send time into equal
// windows of at least a second that each expect at least 2,000 operations.
func (p *phase) windowLatenciesMS() [][]float64 {
	w := max(time.Second, time.Duration(2000/p.offered()*float64(time.Second)))
	n := max(1, int(p.sched/w))
	lat := p.latenciesMS()
	out := make([][]float64, n)
	for i, o := range p.ops {
		k := min(int(int64(o.at)*int64(n)/int64(p.sched)), n-1)
		out[k] = append(out[k], lat[i])
	}
	return out
}

// sendLagMS returns how late each operation was submitted, in milliseconds.
func (p *phase) sendLagMS() []float64 {
	ms := make([]float64, len(p.ops))
	for i, o := range p.ops {
		ms[i] = float64(p.submitAt[i]-int64(o.at)) / 1e6
	}
	return ms
}

// completeFrac is the share of operations answered correctly within the
// schedule plus limit.
func (p *phase) completeFrac(limit time.Duration) float64 {
	end := int64(p.sched + limit)
	n := 0
	for i := range p.ops {
		if p.status[i] == stOK && p.doneAt[i] <= end {
			n++
		}
	}
	return float64(n) / float64(len(p.ops))
}

// offered is the schedule's realized rate in operations per second.
func (p *phase) offered() float64 { return float64(len(p.ops)) / p.sched.Seconds() }
