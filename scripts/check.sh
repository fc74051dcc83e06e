#!/usr/bin/env bash
# Pre-commit check: vet the whole module, then race-test the subsystems with
# the trickiest concurrency surface — persistence, replication, transport,
# failure detection/failover, the seeded chaos harness, the pooled data
# plane (arena recycling under the pipelined epoch loop in core, and the
# pooled hot paths in loadbalancer/ohash), the oblivious sort/merge
# primitives under parallel leaf sorting (obliv), the trace leakage
# suite with parallel workers, and the fault-tolerant root plane (epoch
# journal, standby promotion, exactly-once replies). The full suite is
# `go test ./...`; the long multi-seed chaos soak is scripts/chaos.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
# -race slows the branch-free oblivious scans ~20x; the core package alone
# needs well over go test's default 10m, hence the explicit timeout.
go test -race -timeout 45m \
  ./internal/persist/... \
  ./internal/segstore/... \
  ./internal/replica/... \
  ./internal/transport/... \
  ./internal/faultnet/... \
  ./internal/arena/... \
  ./internal/core/... \
  ./internal/cluster/... \
  ./internal/chaos/... \
  ./internal/loadbalancer/... \
  ./internal/obliv/... \
  ./internal/trace/... \
  ./internal/ohash/... \
  ./internal/telemetry/... \
  ./internal/metrics/...

# The open-loop traffic harness under -race: the scenario-matrix soak, the
# coordinated-omission regression test, and the workload-independence soak
# (byte-identical telemetry across secret-differing key patterns). -short
# skips only the real-time simnet cross-validation sweep, which measures
# wall-clock capacity and is meaningless under the race detector's ~20x
# slowdown; it runs in the plain `go test ./...` tier instead.
go test -race -short -timeout 15m ./internal/loadgen/ ./internal/workload/

# End-to-end smoke of the TCP traffic path: boots a real loopback cluster
# of snoopy-server processes and drives 10^5 open-loop sessions through it.
scripts/traffic.sh smoke

# Focused re-run of the overlapped epoch engine's highest-risk surface at
# pipeline depth > 1: the Flush/Close/stats soak with a faultnet-stalled
# partition mid-drain, the depth-token liveness test, arena isolation
# across in-flight epochs, and the leakage suite at PipelineDepth=4.
# These run above as part of their
# packages; re-running them -count=2 shakes out schedule-dependent
# interleavings the single pass can miss.
go test -race -timeout 15m -count=2 \
  -run 'TestPipelinedSoakWithStalledRemote|TestFlushBlockedOnDepthUnblocksOnClose|TestPipelinedEpochsArenaIsolation|TestPartStageBZeroAlloc' \
  ./internal/core/
go test -race -timeout 15m -count=2 \
  -run 'TestTelemetryTraceIndependentOfSecretsPipelined' \
  ./internal/trace/

# Formerly schedule-dependent tests, shaken the same way: the leakage test
# over a multi-plane tree (depends on the total span export order) and the
# busy-replica skip (depends on the injected member deadline, not a wall
# clock).
go test -race -timeout 15m -count=2 \
  -run 'TestTelemetryTraceIndependentOfSecretsTreeParallel' \
  ./internal/trace/
go test -race -timeout 15m -count=2 \
  -run 'TestBusyReplicaSkippedNotBlocked' \
  ./internal/replica/

# Focused re-run of the fault-tolerant root plane: journal append/replay
# and crash-point recovery in core, root-supervisor promotion races in
# cluster, the seeded root-kill chaos harness, and the journal/standby
# leakage tests. Schedule-sensitive by construction (promotion races a
# probing watchdog), so shake them with -count=2 as well.
go test -race -timeout 15m -count=2 \
  -run 'TestJournal|TestRootPromotion|TestTripPlanesSeparate|TestRootChaos' \
  ./internal/core/ ./internal/cluster/ ./internal/chaos/
go test -race -timeout 15m -count=2 \
  -run 'TestJournalTrace' \
  ./internal/trace/

# Fixed fuzzing budget for the oblivious expansion behind hash-table bin
# placement: every decoded (length, destination set) must land each live
# element on its slot with a content-independent swap schedule.
go test -run '^$' -fuzz '^FuzzExpand$' -fuzztime=15s ./internal/obliv/

# Fixed fuzzing budget for every other fuzz target — oblivious compaction and
# sort orders, the Theorem-3 batch bound, sealing, the segstore registry and
# store, wire decoding, WAL/snapshot recovery and the leaf-run protocol. go
# test -fuzz takes one package and one target per invocation.
while read -r pkg target; do
  go test -run '^$' -fuzz "^${target}\$" -fuzztime=10s "$pkg"
done <<'TARGETS'
. FuzzCompactMatchesReference
. FuzzSortOrders
. FuzzBatchSizeBound
. FuzzSealerRoundTrip
./internal/segstore/ FuzzRegistryDecoder
./internal/segstore/ FuzzStoreMutation
./internal/wirecode/ FuzzDecodeRequests
./internal/persist/ FuzzRecoveryDecoder
./internal/transport/ FuzzServeLeafRunDecoder
./internal/transport/ FuzzDialLeafRunReply
TARGETS
echo "check.sh: OK"
