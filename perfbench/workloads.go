package main

import (
	"time"

	"snoopy/internal/loadgen"
)

// workload is one traffic mix against one deployment shape. Every field is
// recorded in the result, so a run can be reproduced from its output.
type workload struct {
	Name          string             `json:"name"`
	Objects       int                `json:"objects"`
	BlockSize     int                `json:"block_size"`
	LoadBalancers int                `json:"load_balancers"`
	SubORAMs      int                `json:"suborams"`
	Epoch         time.Duration      `json:"epoch_ns"`
	Keys          loadgen.KeyPattern `json:"keys"`
	ZipfS         float64            `json:"zipf_s,omitempty"`
	// WriteFrac is the share of arrivals that are blind writes; UpdateFrac
	// the share of the other arrivals that are read-modify-write pairs.
	WriteFrac  float64 `json:"write_frac"`
	UpdateFrac float64 `json:"update_frac,omitempty"`
	// RefRate is the offered rate (arrivals/s) of the latency phase.
	RefRate float64 `json:"reference_rps"`
	// Limit is the p99 latency a max_rps probe must meet (5T).
	Limit time.Duration `json:"limit_ns"`
	// SearchStart is the first probe rate of the max_rps search, near
	// the knee measured on the reference host.
	SearchStart float64 `json:"search_start_rps"`
	// Remote puts the partitions in two `snoopy-server -data` processes
	// on loopback and journals the root (Config.JournalDir).
	Remote bool `json:"remote"`
}

func (w *workload) scenario() loadgen.Scenario {
	return loadgen.Scenario{
		Name:       w.Name,
		Arrival:    loadgen.ArrivalPoisson,
		Keys:       w.Keys,
		ZipfS:      w.ZipfS,
		WriteFrac:  w.WriteFrac,
		UpdateFrac: w.UpdateFrac,
	}
}

// The max_rps search: probes per run, and the factor between probe rates
// until the knee is bracketed.
const (
	searchProbes = 4
	searchStep   = 1.25
)

// workloads are the benchmark's traffic mixes; perfbench/README.md records
// why each was chosen. BENCHMARK.json gates batch-small and durable-tcp;
// scan-large runs the same way but is not gated (README.md says why).
var workloads = []*workload{
	{
		// 20 MiB of objects, five times the L2 cache: stage B's linear
		// scan dominates every epoch.
		Name: "scan-large", Objects: 131_072, BlockSize: 160,
		LoadBalancers: 1, SubORAMs: 2, Epoch: 200 * time.Millisecond,
		Keys: loadgen.KeysUniform, WriteFrac: 0.05,
		RefRate: 4000, Limit: time.Second,
		SearchStart: 19000,
	},
	{
		// 640 KiB fits in cache: batch sorting, hashing and the client API
		// dominate instead of the scan. T is 100 ms, not 50: at 50 ms the
		// epoch's work sits close enough to T that CPU stolen by the host
		// pushed p99 around by a third between runs.
		Name: "batch-small", Objects: 4096, BlockSize: 160,
		LoadBalancers: 1, SubORAMs: 2, Epoch: 100 * time.Millisecond,
		Keys: loadgen.KeysZipf, ZipfS: 1.1, WriteFrac: 0.5,
		RefRate: 10_000, Limit: 500 * time.Millisecond,
		SearchStart: 26000,
	},
	{
		// Partitions behind attested RPC with a WAL each, and a journaled
		// root: the durable path the other two bypass.
		Name: "durable-tcp", Objects: 32_768, BlockSize: 160,
		LoadBalancers: 1, SubORAMs: 2, Epoch: 100 * time.Millisecond,
		Keys: loadgen.KeysUniform, WriteFrac: 0.3, UpdateFrac: 2.0 / 7, // 20% of arrivals
		RefRate: 4000, Limit: 500 * time.Millisecond,
		SearchStart: 16000,
		Remote:      true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
