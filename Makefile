# Developer entry points. `make check` is the pre-commit gate; `race`
# exercises the persistent worker pool and the shmem buffer swapping
# under the race detector on every change.

GO ?= go

.PHONY: build test race stress vet check bench bench-transport bench-kernel bench-admit bench-batch bench-reshape bench-scenario telemetry-smoke chaos-smoke race-transport serve-smoke cluster-smoke scenario-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the simulator core and both communication runtimes: the
# worker pool, the MPI mailboxes, the PGAS windows, the shmem zero-copy
# slice swapping, and the atomic spike-delivery bitmask all run under
# -race here.
race:
	$(GO) test -race ./internal/truenorth/... ./internal/compass/... ./internal/mpi/... ./internal/pgas/... ./internal/modelcache/... ./internal/server/... ./internal/cluster/... ./internal/reshape/... ./internal/spikecode/... ./internal/scenario/...

# Stress the determinism tables: repeated passes under the race
# detector, so a contract that holds on most runs but not all (an
# ordering race between stream ingest and a control-plane verb, a lane
# mis-routed under one schedule) fails here rather than as a tier-1
# flake.
stress:
	$(GO) test -race -count=20 -run 'TestBatchedLaneMigration$$' ./internal/cluster/
	$(GO) test -race -count=5 -run 'TestBatchBitIdenticalToSolo$$|TestChaosMatrix$$|TestGolden' ./internal/compass/

vet:
	$(GO) vet ./...

check: build vet test race

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate BENCH_transport.json, the per-transport Network-phase
# throughput record (shmem must stay >= mpi on this workload).
bench-transport:
	BENCH_TRANSPORT_OUT=BENCH_transport.json $(GO) test -run TestTransportBenchArtifact -count=1 -v .

# Regenerate BENCH_kernel.json, the Synapse-phase throughput record:
# the bit-parallel kernel must stay >= 1.5x the scalar reference on the
# dense deterministic workload.
bench-kernel:
	BENCH_KERNEL_OUT=BENCH_kernel.json $(GO) test -run TestKernelBenchArtifact -count=1 -v .

# Regenerate BENCH_admit.json, the model-cache admission record: cached
# admission must stay >= 10x faster than a cold PCC compile, N sessions
# sharing one image must stay cheaper than N private copies, and the
# image path must produce bit-identical traces on all three transports.
bench-admit:
	BENCH_ADMIT_OUT=BENCH_admit.json $(GO) test -run TestAdmitBenchArtifact -count=1 -v .

# Regenerate BENCH_batch.json, the multi-session serving record: the
# batched engine must stay >= 2x aggregate ticks/s over independent
# loops at 8 resident sessions of one model, with every lane's trace and
# final checkpoint bit-identical to a solo run.
bench-batch:
	BENCH_BATCH_OUT=BENCH_batch.json $(GO) test -run TestBatchBenchArtifact -count=1 -v .

# Regenerate BENCH_reshape.json, the elastic-repartitioning record: on a
# skewed placement of a compute-dominated synthetic workload, the
# telemetry-driven reshape plan must cut the measured Compute imbalance
# at least 2x, and the rebalanced chunk's throughput must recover.
bench-reshape:
	BENCH_RESHAPE_OUT=BENCH_reshape.json $(GO) test -run TestReshapeBenchArtifact -count=1 -v .

# Regenerate BENCH_scenario.json, the interactive serving record: the
# bandit scenario driven closed-loop (inject -> step -> decode over the
# stream plane) at 1/4/16 concurrent sessions, recording episodes/s and
# p50/p99 inject->decision round trips.
bench-scenario:
	BENCH_SCENARIO_OUT=BENCH_scenario.json $(GO) test -run TestScenarioBenchArtifact -count=1 -v .

# End-to-end telemetry smoke: run a small CoCoMac model with every
# export sink enabled, then validate the Prometheus exposition, the JSON
# snapshot, and the Chrome trace with the in-repo checker. Artifacts
# land in $(SMOKE_DIR) (CI uploads them).
# Chaos smoke: run the CoCoMac workload under every fault class on the
# CLI — survivable classes (retried drop, duplication, delay, stall)
# must complete, the crash class must fail with a clean error naming the
# rank and the tick — then the in-process chaos acceptance tests: the
# full transport x fault-class matrix with bit-identical-output checks,
# and the rank-failure propagation (no-hang) guards.
chaos-smoke:
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "drop"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "dup"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "delay:k=2"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "stall:rank=1,k=1"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -transport pgas -faults "drop;dup"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -transport shmem -faults "drop;dup"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "crash:rank=1,tick=5"; \
		test $$? -ne 0 || { echo "chaos-smoke: injected crash did not fail the run"; exit 1; }
	$(GO) test -run 'TestChaos|TestRankFailure|TestDropPast|TestFailedRun|TestSurvivable' -count=1 ./internal/compass/

# Race-check the fault-injection and failure-propagation paths: the
# chaos matrix, the abort broadcasts, and the faults package itself.
race-transport:
	$(GO) test -race -count=1 ./internal/faults/
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestRankFailure|TestDropPast|TestFailedRun|TestSurvivable|TestCrossTransport|TestShmemAbort|TestRankError|TestAborted|TestErrorAborts' \
		./internal/compass/ ./internal/mpi/ ./internal/pgas/

# Fuzz smoke: ten seconds of native Go fuzzing per network decoder —
# binary models, checkpoints, CoreObject specs, and the stream-plane
# handshake. Each must return an error or a value, never panic; the
# committed seed corpora under testdata/fuzz/ also run in `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadModel$$' -fuzztime 10s ./internal/coreobject/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 10s ./internal/coreobject/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSpec$$' -fuzztime 10s ./internal/coreobject/
	$(GO) test -run '^$$' -fuzz '^FuzzReadStreamHandshake$$' -fuzztime 10s ./internal/server/

# End-to-end serving smoke: build compassd, then run the cmd/smoke
# serve drill — session create/pause/resume/checkpoint over HTTP, live
# spike injection and egress over the stream plane, SIGTERM drain to
# checkpoint files, and a successor daemon resuming from them. All
# output (both daemons + client) lands in $(SERVE_DIR)/serve-smoke.log.
SERVE_DIR ?= serve-smoke
serve-smoke:
	mkdir -p $(SERVE_DIR)
	$(GO) build -o $(SERVE_DIR)/compassd ./cmd/compassd
	$(GO) run ./cmd/smoke -drill serve -compassd $(SERVE_DIR)/compassd -dir $(SERVE_DIR)

# Cluster serving smoke: build compassd, then run the cmd/smoke cluster
# drill — a coordinator plus three nodes, live migration between
# daemons and SIGKILL heartbeat-lapse failover, each verified
# byte-identical (spike trace + final checkpoint) against a solo
# reference run. All process output lands in
# $(CLUSTER_DIR)/cluster-smoke.log.
CLUSTER_DIR ?= cluster-smoke
cluster-smoke:
	mkdir -p $(CLUSTER_DIR)
	$(GO) build -o $(CLUSTER_DIR)/compassd ./cmd/compassd
	$(GO) run ./cmd/smoke -drill cluster -compassd $(CLUSTER_DIR)/compassd -dir $(CLUSTER_DIR)

# Scenario smoke: build compassd, then run the cmd/smoke scenario drill
# — every registered closed-loop scenario (bandit, stroop, charrec)
# through the episode engine, the per-scenario counters and stream-RTT
# histogram on /metrics, determinism pinned by replaying one run
# through compass.Run, and a re-run through a coordinator + node that
# must give a bit-identical inject stream and score. Output lands in
# $(SCENARIO_DIR)/scenario-smoke.log.
SCENARIO_DIR ?= scenario-smoke
scenario-smoke:
	mkdir -p $(SCENARIO_DIR)
	$(GO) build -o $(SCENARIO_DIR)/compassd ./cmd/compassd
	$(GO) run ./cmd/smoke -drill scenario -compassd $(SCENARIO_DIR)/compassd -dir $(SCENARIO_DIR)

SMOKE_DIR ?= telemetry-smoke
telemetry-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 \
		-metrics $(SMOKE_DIR)/run -trace-out $(SMOKE_DIR)/trace.json \
		-stats-json $(SMOKE_DIR)/stats.json
	$(GO) run ./cmd/telemetrycheck -metrics $(SMOKE_DIR)/run.prom \
		-snapshot $(SMOKE_DIR)/run.json -trace $(SMOKE_DIR)/trace.json
