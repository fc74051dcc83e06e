// Command perfbench is the repository's benchmark: open-loop Poisson
// traffic from loadgen.Plan against the public snoopy API, on workloads
// that stress different layers (see README.md in this directory and
// BENCHMARK.json at the repository root, which lists the gated ones).
//
// An untraced run (--trace 0) reports the end-to-end metrics: latency at
// the workload's reference rate timed from each request's intended send
// time, the highest rate that meets the workload's latency limit, set-up
// time, peak memory and space amplification. A traced run (--trace 1)
// turns on the store's telemetry and reports the per-layer split. Every
// answer is checked against the key it answers; a failed check is named on
// standard error and the run exits non-zero.
//
// Run it from the repository root through run.sh, which builds it and the
// partition server first:
//
//	bash perfbench/run.sh --workload durable-tcp --seed 1 --seconds 50 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
)

// extraSetups is the number of traffic-free deployments a run makes before
// its phases. They warm the process, and they make an untraced run's
// setup_s a median of at least 17 samples, most of them from a warm
// process: the first few deployments of a process take up to three times
// as long as the rest.
const extraSetups = 12

// refShare is the share of an untraced run's seconds spent at the reference
// rate; the max_rps probes share the rest.
const refShare = 0.3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: scan-large, batch-small or durable-tcp")
	seed := flag.Int64("seed", 1, "seed of every schedule in the run")
	seconds := flag.Float64("seconds", 50, "seconds of traffic in the run, set-up excluded")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	serverBin := flag.String("server-bin", "", "path of the snoopy-server binary (durable-tcp)")
	workRoot := flag.String("work", ".bench_build/perfbench", "directory for scratch state and span files")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if w.Remote && *serverBin == "" {
		fatalf("%s needs -server-bin", w.Name)
	}
	work, err := scratchDir(*workRoot)
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	defer os.RemoveAll(work)

	b := newBench(w, *seed, *seconds, work, *serverBin)
	key := crypt.MustNewKey()
	b.platform = enclave.NewPlatformFromKey(key)
	b.platformHex = hex.EncodeToString(key[:])

	res := result{Metrics: map[string]metric{}}
	if *traced == 1 {
		err = b.runTraced(res.Metrics)
		if err == nil {
			path := filepath.Join(*workRoot, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, *seed))
			if werr := b.spans.write(path); werr != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", werr)
			} else {
				b.report["spans_file"] = path
			}
		}
	} else {
		err = b.runUntraced(res.Metrics)
	}
	if err != nil {
		os.RemoveAll(work)
		fatalf("%s: %v", w.Name, err)
	}

	res.Correct = len(b.checks) == 0
	res.Attempted = b.attempted
	res.Failed = b.failed
	b.report["provenance"] = provenance(*seed, *seconds, *traced == 1)
	b.report["workload"] = w
	b.report["checks_failed"] = b.checks
	b.report["error_rate"] = metric{float64(b.failed) / float64(max(b.attempted, 1)), "fraction"}
	b.report["setup_samples_s"] = b.setups

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-34s %14.6f fraction (%d of %d)\n", "error_rate", b.report["error_rate"].(metric).Value, b.failed, b.attempted)

	detail, _ := json.Marshal(map[string]any{"perfbench": b.report})
	fmt.Println(string(detail))
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

// runUntraced measures the end-to-end metrics: the reference-rate latency
// phase, then the max_rps search with a fresh store per probe.
func (b *bench) runUntraced(m map[string]metric) error {
	w := b.w
	total := time.Duration(b.seconds * float64(time.Second))
	if err := b.setupOnly(extraSetups); err != nil {
		return err
	}
	ref, err := b.latencyPhase(time.Duration(refShare*float64(total)), false)
	if err != nil {
		return err
	}
	// Memory is read before the probes: an overloaded probe's footprint
	// depends on how far past the knee the search happened to step.
	rss := b.rssPeakMiB()
	probeDur := time.Duration((1 - refShare) * float64(total) / searchProbes)
	trail, err := searchMaxRate(func(rate float64) (probeVerdict, error) {
		return b.probe(rate, probeDur)
	}, w.SearchStart, searchStep, searchProbes)
	if err != nil {
		return err
	}
	best := maxRate(trail, float64(w.Limit)/float64(time.Millisecond))
	if best == 0 {
		b.fail("max_rps", "no probe met the %v p99 limit", w.Limit)
	}
	b.report["reference"] = ref.lat
	b.report["reference_whole_phase"] = ref.whole
	b.report["send_lag_ms_p99"] = ref.lagP99
	b.report["send_lag_valid"] = sendLagValid(ref.lagP99, w.Epoch)
	b.report["probes"] = trail

	m["p50_ms"] = metric{ref.lat.P50, "ms"}
	m["p99_ms"] = metric{ref.lat.P99, "ms"}
	m["max_rps"] = metric{best, "req/s"}
	m["setup_s"] = metric{median(b.setups), "s"}
	m["rss_peak_mb"] = metric{rss, "MiB"}
	m["space_amp"] = metric{ref.spaceAmp, "ratio"}
	return nil
}

// runTraced measures the per-layer metrics: an untraced reference phase
// (for the tracing overhead, allocations, GC and generator lag), then the
// same schedule with telemetry and the benchmark's own spans on.
func (b *bench) runTraced(m map[string]metric) error {
	half := time.Duration(b.seconds / 2 * float64(time.Second))
	if err := b.setupOnly(extraSetups); err != nil {
		return err
	}
	plain, err := b.latencyPhase(half, false)
	if err != nil {
		return err
	}
	traced, err := b.latencyPhase(half, true)
	if err != nil {
		return err
	}
	units := map[string]string{
		"snoopy.submit_us_p50": "us", "snoopy.submit_us_p99": "us",
		"core.epochs_per_s": "1/s", "loadbalancer.useful_ratio": "ratio",
		"suboram.scan_ns_per_object": "ns", "transport.retries": "count",
		"persist.snapshots": "count", "persist.write_bytes_per_epoch": "B",
		"persist.journal_bytes_per_epoch": "B",
	}
	for k, v := range traced.layers {
		u, ok := units[k]
		if !ok {
			u = "ms"
		}
		m[k] = metric{v, u}
	}
	completed := plain.lat.Samples - plain.lat.Infinite
	m["snoopy.allocs_per_op"] = metric{float64(plain.mem.Mallocs) / float64(max(completed, 1)), "count"}
	m["runtime.gc_pause_ms_total"] = metric{float64(plain.mem.PauseTotalNs) / 1e6, "ms"}
	m["runtime.gc_cycles"] = metric{float64(plain.mem.NumGC), "count"}
	m["loadgen.send_lag_ms_p99"] = metric{plain.lagP99, "ms"}
	m["trace.overhead_pct"] = metric{100 * (traced.lat.P50 - plain.lat.P50) / plain.lat.P50, "%"}
	b.report["reference_untraced"] = plain.lat
	b.report["reference_traced"] = traced.lat
	b.report["send_lag_valid"] = sendLagValid(plain.lagP99, b.w.Epoch)
	return nil
}

// rssPeakMiB is the peak resident set of this process plus the largest
// peak of each partition server slot.
func (b *bench) rssPeakMiB() float64 {
	total := vmHWM(os.Getpid())
	for _, h := range b.serverHWM {
		total += h
	}
	return float64(total) / (1 << 20)
}

// provenance records where and how the run was made.
func provenance(seed int64, seconds float64, traced bool) map[string]any {
	rev := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"git_rev":       rev,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"seed":          seed,
		"seconds":       seconds,
		"traced":        traced,
	}
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories (build output), so a run names the code it measured
// even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if fi.IsDir() && path != root && strings.HasPrefix(fi.Name(), ".") {
			return filepath.SkipDir
		}
		ext := filepath.Ext(path)
		if !fi.Mode().IsRegular() || (ext != ".go" && ext != ".s" && ext != ".mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
