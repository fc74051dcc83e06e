package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"snoopy"
)

// span is one interval the benchmark recorded around a call it made.
// Spans of one request share Req; Parent names the span that caused it.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // request (operation) id; -1 for per-epoch calls
	Part   int    `json:"part,omitempty"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// spanLog keeps the benchmark's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	reqs  int64 // request ids handed out so far
}

func (l *spanLog) add(s span) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = int64(len(l.spans)) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// addRPC records one batch call to partition part.
func (l *spanLog) addRPC(name string, part int, start, end time.Time) {
	l.add(span{Name: name, Req: -1, Part: part, Start: start.UnixNano(), End: end.UnixNano()})
}

// addRequests records every operation of a traced phase as a "request"
// span from its intended send time to its answer, with "submit" (inside
// ReadAsync/WriteAsync) and "await" (waiting for the answer) children.
func (l *spanLog) addRequests(p *phase) {
	base := p.start.UnixNano()
	for i, o := range p.ops {
		l.mu.Lock()
		req := l.reqs
		l.reqs++
		l.mu.Unlock()
		sent := base + p.submitAt[i]
		submitted := sent + p.submitDur[i]
		root := l.add(span{Name: "request", Req: req, Start: base + int64(o.at), End: base + p.doneAt[i]})
		l.add(span{Name: "submit", Parent: root, Req: req, Start: sent, End: submitted})
		l.add(span{Name: "await", Parent: root, Req: req, Start: submitted, End: base + p.doneAt[i]})
	}
}

// durations returns the durations in ms of the spans whose name starts
// with prefix.
func (l *spanLog) durations(prefix string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ms []float64
	for _, s := range l.spans {
		if strings.HasPrefix(s.Name, prefix) {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return ms
}

// write stores the spans as JSON lines in path.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Histograms the taps sample. Only count and sum are exported, so a tap
// polls them several times an epoch and keeps the mean of each interval
// that saw observations; with at most one observation per interval per
// source, that is the observation itself.
var (
	localHists  = []string{"lb_make_batch", "lb_match", "suboram_build", "suboram_scan", "suboram_extract"}
	rootHists   = []string{"lb_make_batch", "lb_match"}
	serverHists = []string{"suboram_build", "suboram_scan", "suboram_extract", "transport_batch_serve", "persist_wal_append"}
)

// telemetryTaps samples a deployment's exported telemetry while a traced
// phase runs: the root's registry, and for a remote deployment each
// server's /metrics and the bytes written under the -data and journal
// directories.
type telemetryTaps struct {
	reg  *snoopy.Telemetry
	dep  *deployment // remote only
	http *http.Client

	stopCh chan struct{}
	done   chan struct{}

	samples    map[string][]float64 // histogram → per-interval means, ms
	last       map[string][2]int64  // source/histogram → last (count, sum)
	counters0  map[string]uint64    // server counters summed, at start
	counters1  map[string]uint64    // … at stop
	dataBytes  fileWrites           // under the -data directories
	journalB   fileWrites           // under the JournalDir
	stopOnce   sync.Once
	pollErrors int
}

func newLocalTaps(reg *snoopy.Telemetry) *telemetryTaps {
	return &telemetryTaps{reg: reg, samples: map[string][]float64{}, last: map[string][2]int64{}}
}

func newRemoteTaps(reg *snoopy.Telemetry, dep *deployment) *telemetryTaps {
	t := newLocalTaps(reg)
	t.dep = dep
	t.http = &http.Client{Timeout: 2 * time.Second}
	return t
}

// start begins sampling several times per epoch.
func (t *telemetryTaps) start(epoch time.Duration) {
	interval := epoch / 10
	if t.dep != nil {
		interval = epoch / 5
	}
	t.stopCh = make(chan struct{})
	t.done = make(chan struct{})
	t.poll() // baseline
	t.counters0 = t.serverCounters()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-t.stopCh:
				return
			case <-tick.C:
				t.poll()
			}
		}
	}()
}

// stop ends sampling with a last poll; safe to call more than once.
func (t *telemetryTaps) stop() {
	t.stopOnce.Do(func() {
		if t.stopCh == nil {
			return
		}
		close(t.stopCh)
		<-t.done
		t.poll()
		t.counters1 = t.serverCounters()
	})
}

func (t *telemetryTaps) observe(source, name string, count, sum int64) {
	key := source + "/" + name
	prev, seen := t.last[key]
	t.last[key] = [2]int64{count, sum}
	if seen && count > prev[0] {
		t.samples[name] = append(t.samples[name], float64(sum-prev[1])/float64(count-prev[0])/1e6)
	}
}

func (t *telemetryTaps) poll() {
	names := localHists
	if t.dep != nil {
		names = rootHists
	}
	for _, name := range names {
		h := t.reg.Histogram(name, nil)
		t.observe("root", name, int64(h.Count()), int64(h.Sum()))
	}
	if t.dep == nil {
		return
	}
	for s, srv := range t.dep.servers {
		_, hists, err := scrape(t.http, srv.telemetry)
		if err != nil {
			t.pollErrors++
			continue
		}
		for _, name := range serverHists {
			h := hists[name]
			t.observe("server"+strconv.Itoa(s), name, h[0], h[1])
		}
	}
	t.dataBytes.poll(t.dep.dataDir...)
	t.journalB.poll(t.dep.journal)
}

// serverCounters sums every server's counters.
func (t *telemetryTaps) serverCounters() map[string]uint64 {
	sum := map[string]uint64{}
	if t.dep == nil {
		return sum
	}
	for _, srv := range t.dep.servers {
		counters, _, err := scrape(t.http, srv.telemetry)
		if err != nil {
			t.pollErrors++
			continue
		}
		for k, v := range counters {
			sum[k] += v
		}
	}
	return sum
}

// fileWrites estimates the bytes written under directories from outside
// the writer: each poll adds a file's growth, or its whole size when it is
// new, replaced or was truncated since the last poll. Files present at the
// first poll were written during set-up and count only their growth.
type fileWrites struct {
	files  map[string]fileState
	primed bool
	total  int64
}

type fileState struct {
	ino  uint64
	size int64
}

func (f *fileWrites) poll(dirs ...string) {
	if f.files == nil {
		f.files = map[string]fileState{}
	}
	for _, dir := range dirs {
		_ = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
			if err != nil || !fi.Mode().IsRegular() {
				return nil
			}
			var ino uint64
			if st, ok := fi.Sys().(*syscall.Stat_t); ok {
				ino = st.Ino
			}
			prev, seen := f.files[path]
			switch {
			case !seen:
				if f.primed {
					f.total += fi.Size()
				}
			case prev.ino != ino || fi.Size() < prev.size:
				f.total += fi.Size()
			default:
				f.total += fi.Size() - prev.size
			}
			f.files[path] = fileState{ino: ino, size: fi.Size()}
			return nil
		})
	}
	f.primed = true
}

// percentileMS is the nearest-rank q-quantile of ms, 0 when empty.
func percentileMS(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	return quantileOf(ms, q)
}

// stageMaxMS returns, per epoch, the longest span of stage: the part that
// blocks the epoch.
func stageMaxMS(spans []snoopy.EpochSpan, stage string) []float64 {
	byEpoch := map[uint64]int64{}
	for _, s := range spans {
		if s.Stage == stage && s.Dur > byEpoch[s.Epoch] {
			byEpoch[s.Epoch] = s.Dur
		}
	}
	ms := make([]float64, 0, len(byEpoch))
	for _, d := range byEpoch {
		ms = append(ms, float64(d)/1e6)
	}
	sort.Float64s(ms)
	return ms
}

// layers derives the per-layer metrics of a traced phase from the spans
// and histograms the program exports and the benchmark's own spans.
func (t *telemetryTaps) layers(b *bench, p *phase, out *latencyOutcome) map[string]float64 {
	m := map[string]float64{}
	spans := t.reg.Spans(1 << 16)
	epochs := stageMaxMS(spans, "epoch")
	m["core.epoch_ms_p50"] = percentileMS(epochs, 0.50)
	m["core.epoch_ms_p99"] = percentileMS(epochs, 0.99)
	m["core.stage_a_ms_p50"] = percentileMS(stageMaxMS(spans, "stage_a_batch"), 0.50)
	m["core.stage_b_ms_p50"] = percentileMS(stageMaxMS(spans, "stage_b_suboram"), 0.50)
	m["core.stage_c_ms_p50"] = percentileMS(stageMaxMS(spans, "stage_c_match"), 0.50)
	m["core.wait_ms_p50"] = out.lat.P50 - m["core.epoch_ms_p50"]
	m["core.epochs_per_s"] = float64(len(epochs)) / out.seconds

	var requests, rows int
	for _, s := range spans {
		switch s.Stage {
		case "epoch":
			requests += s.B
		case "stage_b_suboram":
			rows += s.B
		}
	}
	if rows > 0 {
		m["loadbalancer.useful_ratio"] = float64(requests) / float64(rows)
	}
	m["loadbalancer.make_batch_ms_p50"] = percentileMS(t.samples["lb_make_batch"], 0.50)
	m["loadbalancer.match_ms_p50"] = percentileMS(t.samples["lb_match"], 0.50)
	m["suboram.build_ms_p50"] = percentileMS(t.samples["suboram_build"], 0.50)
	m["suboram.scan_ms_p50"] = percentileMS(t.samples["suboram_scan"], 0.50)
	m["suboram.extract_ms_p50"] = percentileMS(t.samples["suboram_extract"], 0.50)
	perPart := float64(b.w.Objects) / float64(b.w.SubORAMs)
	m["suboram.scan_ns_per_object"] = m["suboram.scan_ms_p50"] * 1e6 / perPart

	submits := make([]float64, len(p.submitDur))
	for i, d := range p.submitDur {
		submits[i] = float64(d) / 1e3
	}
	m["snoopy.submit_us_p50"] = percentileMS(submits, 0.50)
	m["snoopy.submit_us_p99"] = percentileMS(submits, 0.99)

	rpc := b.spans.durations("rpc.")
	m["transport.rpc_ms_p50"] = percentileMS(rpc, 0.50)
	m["transport.rpc_ms_p99"] = percentileMS(rpc, 0.99)
	m["transport.serve_ms_p50"] = percentileMS(t.samples["transport_batch_serve"], 0.50)
	m["transport.retries"] = float64(t.reg.Counter("transport_retries_total").Value() +
		t.reg.Counter("transport_reconnects_total").Value())
	m["persist.wal_append_ms_p99"] = percentileMS(t.samples["persist_wal_append"], 0.99)
	m["persist.snapshots"] = float64(t.counters1["persist_snapshots_total"] - t.counters0["persist_snapshots_total"])
	m["persist.write_bytes_per_epoch"] = float64(t.dataBytes.total) / float64(max(len(epochs), 1))
	m["persist.journal_bytes_per_epoch"] = float64(t.journalB.total) / float64(max(len(epochs), 1))
	b.report["telemetry_poll_errors"] = t.pollErrors
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return m
}
