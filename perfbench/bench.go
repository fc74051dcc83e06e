package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"snoopy"
)

// bench is one run of one workload.
type bench struct {
	w           *workload
	seed        int64
	seconds     float64
	work        string // scratch directory for data and journal directories
	serverBin   string
	platform    *snoopy.Platform
	platformHex string
	ids         []uint64
	data        []byte // initial blocks, version 0
	spans       *spanLog

	deploys   int
	phases    int
	setups    []float64 // seconds, one per deployment
	serverHWM []int64   // peak RSS per partition slot, bytes
	attempted int
	failed    int // failed + undelivered + overflow-dropped
	checks    []string
	report    map[string]any // detail record printed before the result
}

func newBench(w *workload, seed int64, seconds float64, work, serverBin string) *bench {
	b := &bench{
		w: w, seed: seed, seconds: seconds, work: work, serverBin: serverBin,
		ids:    make([]uint64, w.Objects),
		data:   make([]byte, w.Objects*w.BlockSize),
		spans:  &spanLog{},
		report: map[string]any{},
	}
	for i := range b.ids {
		b.ids[i] = uint64(i)
		fillBlock(b.data[i*w.BlockSize:(i+1)*w.BlockSize], uint64(i), 0)
	}
	return b
}

// fail records a failed correctness check by name.
func (b *bench) fail(check string, format string, args ...any) {
	msg := check + ": " + fmt.Sprintf(format, args...)
	b.checks = append(b.checks, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func (b *bench) noteServerHWM(slot int, hwm int64) {
	for len(b.serverHWM) <= slot {
		b.serverHWM = append(b.serverHWM, 0)
	}
	b.serverHWM[slot] = max(b.serverHWM[slot], hwm)
}

// latencyOutcome is what one latency phase at the reference rate yields.
type latencyOutcome struct {
	lat      latencySummary // median over windows (see summarizeWindows)
	whole    latencySummary // over the whole phase at once
	lagP99   float64        // ms
	spaceAmp float64
	seconds  float64          // length of the schedule
	mem      runtime.MemStats // delta over the phase (Mallocs, NumGC, PauseTotalNs)
	layers   map[string]float64
}

// latencyPhase deploys a fresh store and runs the reference-rate schedule
// of length d against it. Untraced remote phases end with the durability
// check.
func (b *bench) latencyPhase(d time.Duration, traced bool) (*latencyOutcome, error) {
	dep, setup, err := b.deploy(traced)
	if err != nil {
		return nil, err
	}
	defer dep.close(b)
	b.setups = append(b.setups, setup.Seconds())
	ops, err := planOps(b.w, b.w.RefRate, d, b.seed)
	if err != nil {
		return nil, err
	}
	out := &latencyOutcome{seconds: d.Seconds()}
	if dep.tel != nil {
		dep.tel.start(b.w.Epoch)
	}
	before := memStats()
	p := b.run(dep, ops, d, 3*b.w.Limit, traced)
	after := memStats()
	out.mem = runtime.MemStats{
		Mallocs:      after.Mallocs - before.Mallocs,
		NumGC:        after.NumGC - before.NumGC,
		PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
	}
	if dep.tel != nil {
		dep.tel.stop()
	}
	out.lat, err = summarizeWindows(p.windowLatenciesMS())
	if err != nil {
		b.fail("samples", "reference phase: %v", err)
	}
	if whole, err := summarize(p.latenciesMS()); err == nil {
		out.whole = whole
	}
	if math.IsInf(out.lat.P99, 1) {
		b.fail("latency", "reference phase: %d of %d operations unanswered, p99 is infinite", out.lat.Infinite, out.lat.Samples)
	}
	lag := p.sendLagMS()
	out.lagP99 = quantileOf(lag, 0.99)

	objBytes := float64(b.w.Objects * b.w.BlockSize)
	if b.w.Remote {
		out.spaceAmp = float64(dep.diskBytes()) / objBytes
	} else {
		out.spaceAmp = float64(dep.heapBytes) / objBytes
	}
	if dep.tel != nil {
		out.layers = dep.tel.layers(b, p, out)
	}
	if b.w.Remote && !traced {
		b.checkDurability(dep, p)
	}
	return out, nil
}

// setupOnly deploys and tears down n fresh stores without traffic, so the
// run's set-up time is the median of enough samples.
func (b *bench) setupOnly(n int) error {
	for i := 0; i < n; i++ {
		dep, setup, err := b.deploy(false)
		if err != nil {
			return err
		}
		dep.close(b)
		b.setups = append(b.setups, setup.Seconds())
	}
	return nil
}

// run drives one schedule against dep, tallies its operations into the
// run's totals and checks the answers and the drop counter.
func (b *bench) run(dep *deployment, ops []op, sched, drain time.Duration, traced bool) *phase {
	b.phases++
	p := runPhase(dep.st, ops, sched, phaseConfig{
		block:       b.w.BlockSize,
		epoch:       b.w.Epoch,
		drain:       drain,
		verBase:     uint64(b.phases) << 32,
		timeSubmits: traced,
	}, dep.closeRoot)
	_, failed, undelivered, wrong := p.counts()
	b.attempted += len(ops)
	b.failed += failed + undelivered
	if wrong > 0 {
		b.fail("answers", "%d answers did not match their key; first: %s", wrong, *p.firstBad.Load())
	}
	if dep.st != nil {
		if n := dep.st.TotalDropped(); n != 0 {
			b.fail("dropped", "TotalDropped() = %d, want 0", n)
		}
	}
	if traced {
		b.spans.addRequests(p)
	}
	return p
}

// probe measures one max_rps candidate rate on a fresh store.
func (b *bench) probe(rate float64, d time.Duration) (probeVerdict, error) {
	dep, setup, err := b.deploy(false)
	if err != nil {
		return probeVerdict{}, err
	}
	defer dep.close(b)
	b.setups = append(b.setups, setup.Seconds())
	ops, err := planOps(b.w, rate, d, b.seed)
	if err != nil {
		return probeVerdict{}, err
	}
	// A probe past the knee drains its backlog rather than dropping it, so
	// every operation of the run is answered; the deadline only catches a
	// wedged store.
	p := b.run(dep, ops, d, d+30*time.Second, false)
	v, err := verdict(p, rate, b.w.Limit, b.w.Epoch)
	v.SetupS = setup.Seconds()
	return v, err
}

// checkDurability crashes one partition server after a durable phase,
// restarts it on the same -data directory, reopens the root on the same
// JournalDir (which pins the routing key) and reads back every key the
// phase wrote: each must hold the last value acknowledged for it.
func (b *bench) checkDurability(dep *deployment, p *phase) {
	const check = "durability"
	dep.closeRoot()
	b.noteServerHWM(0, dep.servers[0].kill())
	srv, err := startServer(b.serverBin, dep.dataDir[0], b.platformHex, b.w.BlockSize, false)
	if err != nil {
		dep.servers[0] = nil
		b.fail(check, "restart partition 0: %v", err)
		return
	}
	dep.servers[0] = srv
	if err := dep.open(b, nil, false); err != nil {
		b.fail(check, "reopen: %v", err)
		return
	}
	allowed := lastWrites(p)
	keys := make([]uint64, 0, len(allowed))
	waits := make([]func() ([]byte, bool, error), 0, len(allowed))
	for k := range allowed {
		w, err := dep.st.ReadAsync(k)
		if err != nil {
			b.fail(check, "read back key %d: %v", k, err)
			return
		}
		keys = append(keys, k)
		waits = append(waits, w)
	}
	bad := 0
	var first error
	for i, w := range waits {
		v, found, err := w()
		if err == nil && !found {
			err = errors.New("not found")
		}
		var ver uint64
		if err == nil {
			ver, err = checkBlock(v, keys[i])
		}
		if err == nil && allowed[keys[i]] != nil && !allowed[keys[i]][ver] {
			err = fmt.Errorf("holds version %d, not its last acknowledged write", ver)
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("key %d: %w", keys[i], err)
			}
		}
	}
	if bad > 0 {
		b.fail(check, "%d of %d written keys wrong after restart; first: %v", bad, len(keys), first)
	}
	b.report["durability_keys_checked"] = len(keys)
}

// lastWrites returns, for every key p wrote, the versions the store may
// hold once p has drained: the writes acknowledged no earlier than the
// latest write to that key was submitted, any of which may be ordered last.
// A key with a write of unknown outcome maps to nil: any version of it is
// accepted.
func lastWrites(p *phase) map[uint64]map[uint64]bool {
	latest := map[uint64]int64{}
	uncertain := map[uint64]bool{}
	for i, o := range p.ops {
		if !o.write {
			continue
		}
		if t, ok := latest[o.key]; !ok || p.submitAt[i] > t {
			latest[o.key] = p.submitAt[i]
		}
		if p.status[i] != stOK {
			uncertain[o.key] = true
		}
	}
	allowed := make(map[uint64]map[uint64]bool, len(latest))
	for k := range uncertain {
		allowed[k] = nil
	}
	for i, o := range p.ops {
		if !o.write || uncertain[o.key] || p.doneAt[i] < latest[o.key] {
			continue
		}
		if allowed[o.key] == nil {
			allowed[o.key] = map[uint64]bool{}
		}
		allowed[o.key][p.version(i)] = true
	}
	return allowed
}

// scratchDir creates the run's scratch directory under root.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// quantileOf returns the nearest-rank q-quantile of xs without reordering
// it.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
