GO ?= go

.PHONY: check fmt vet build build-obsv-off test race alloc-gates bench bench-sim bench-transport bench-sched bench-trace microbench fuzz

# check is the one-command gate: formatting (gofmt), stock go vet over both
# build configurations, full build (with and without the observability
# layer), the test suite under the race detector (which is what makes
# TestRingRecordSPSC a check of the shm ring's atomics discipline), and the allocation-regression gates (which need a race-free
# build: the race runtime drops sync.Pool puts).
check: fmt vet build build-obsv-off race alloc-gates

# fmt fails, listing the offenders, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l . 2>&1); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# alloc-gates are the steady-state budgets for the hot paths, checked at run
# time: zero allocs per Scheduled.Fn run over Contig or ContigV (at most one
# for the allgather view), zero allocs per whole warm all-to-all of
# Scheduled.Fn over tcp (an in-process world and a join mesh without shm, at
# 64 B and 64 KiB: send frames and receive ops recycled, small frames read
# in one read(2)), a recycled send frame that no stream still holds (in no
# queue, retransmit window or writer batch, through the drops, reconnects
# and duplicates of a faults plan; make race runs it under the race
# detector), amortized sub-0.1 allocs per instrumented operation, zero
# allocs per tcp send-loop pass once warm (frames from the freelist,
# collect, buildIovecs, the writev, releaseBatch, ack retirement and the
# payload pool's hit path), the lazy ack's memory budget (one-way copied tcp
# frames ask for an ack once writerMaxBatch of them wait for one, and every
# pooled copy an ack covers is back in the pool when it lands), zero
# userspace payload copies on the tcp data plane with receives pre-posted
# (the zero-copy gate: one row for an in-process world, one for a mesh
# joined through a coordinator), a borrowed send's iovec that is the
# caller's block and a posted receive read into nothing but its own buffer
# (the aliasing gate), no allocation in an untimed tcp stream wait that
# blocks (Flush with d <= 0), none in an shm round of out-of-order receives,
# in the fast rate solver or in the schedule's first-fit probe, a warm aapcd
# fetch that derives nothing (no plan build, no rendering: stored bytes with
# Content-Length), a 64-machine sync plan in under 8 MB (enumerating the
# conflict pairs again would take well over 100 MB), no allocation in
# decoding one sync of a schedule body, and simulator allocations that do
# not grow with message count (one simnet Run of five scheduled all-to-alls
# on topology (b) at 64 KiB allocates at most 64 objects more than a Run of
# one: ops and flows recycle through the engine's free lists).
alloc-gates:
	$(GO) test -run 'TestScheduledFnNoSteadyStateAllocs|TestScheduledFnTCPNoSteadyStateAllocs' -count=1 ./internal/alltoall/
	$(GO) test -run 'TestInstrumentedOpAllocsAmortized' -count=1 ./internal/obsv/
	$(GO) test -run 'TestTCPZeroCopySteadyState|TestUntimedStreamWaitNoAllocs|TestSendLoopNoSteadyStateAllocs|TestZeroCopyAliasing|TestLazyAckWindowOneWayCopied|TestFrameRecycledOnlyWhenFree' -count=1 ./internal/mpi/tcp/
	$(GO) test -run 'TestWorldStagedBuffersReused' -count=1 ./internal/mpi/shm/
	$(GO) test -run 'TestAssignRatesNoSteadyStateAllocs|TestSimAllocsFlatInMessageCount' -count=1 ./internal/simnet/
	$(GO) test -run 'TestFirstFreeNoAllocs' -count=1 ./internal/schedule/
	$(GO) test -run 'TestWarmFetchDerivesNothing' -count=1 ./internal/sched/
	$(GO) test -run 'TestBuildAllocationBound|TestSyncJSON' -count=1 ./internal/syncplan/

# vet runs stock go vet (copylocks, loopclosure and the rest) over both
# build configurations: the instrumented and no-op observability layers
# typecheck differently, test files included.
vet:
	$(GO) vet ./...
	$(GO) vet -tags obsv_off ./...

build:
	$(GO) build ./...

# The obsv_off tag compiles the observability layer down to no-ops; the tree
# must build in that configuration too.
build-obsv-off:
	$(GO) build -tags obsv_off ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench regenerates the machine-readable evaluation reports: the Fig. 1
# example cluster and the 32-node star topology (b), written as
# BENCH_fig1.json and BENCH_b.json.
bench:
	$(GO) run ./cmd/aapcbench -topo fig1 -json .
	$(GO) run ./cmd/aapcbench -topo b -json .

# bench-sim measures raw simulator-engine throughput (events/s, allocs) on
# jittered 32/128-rank and windowed 512-rank AAPC runs; committed reference
# numbers live in BENCH_sim.json.
bench-sim:
	$(GO) test -bench=BenchmarkSimAAPC -benchmem -benchtime=1x -run=^$$ ./internal/simnet/

# bench-transport measures the transport data plane: scheduled all-to-all
# over the mem, shm and tcp transports across a world-size x message-size
# grid, with copies/op tracking the zero-copy path; committed reference
# numbers live in BENCH_transport.json.
bench-transport:
	$(GO) test -bench 'BenchmarkMemAlltoall|BenchmarkShmAlltoall|BenchmarkTCPAlltoall' -run=^$$ -benchtime 30x ./internal/alltoall/
	$(GO) test -bench 'BenchmarkBuildGreedy/N=64|BenchmarkBuildGreedy/N=256' -run=^$$ -benchtime 1x ./internal/schedule/

# microbench runs the go-test benchmarks (paper tables/figures, transport
# and instrumentation costs).
microbench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-sched measures the schedule daemon's compile paths: from-scratch
# parallel greedy compiles vs incremental reschedule after a one-node
# delta, at N=128 and N=512 (committed reference numbers live in
# BENCH_sched.json), and the sync plan of the paper's schedule at N=32, 64
# and 128 with its allocations.
bench-sched:
	$(GO) test -bench 'BenchmarkBuildGreedyParallel|BenchmarkReschedule' -run=^$$ -benchtime 1x ./internal/schedule/
	$(GO) test -bench 'BenchmarkBuild' -benchmem -run=^$$ ./internal/syncplan/

# bench-trace measures the causal-tracing pipeline: per-operation overhead
# of the instrumented wrapper, collector JSONL ingest and merge throughput
# (spans/s), full-report analysis cost, and the multi-host clock-offset
# estimator; committed reference numbers live in BENCH_trace.json.
bench-trace:
	$(GO) test -bench=BenchmarkInstrumentedOpCost -benchmem -run=^$$ ./internal/obsv/
	$(GO) test -bench 'BenchmarkIngestJSONL|BenchmarkMerge|BenchmarkAnalyze|BenchmarkEstimateOffsets' -benchmem -run=^$$ ./internal/obsv/collect/

# Short fuzz passes over every DSL parser, the daemon's request grammar,
# the pair form of schedule bodies (against encoding/json), the tcp
# frame-header decoder, the tcp read loop parsing valid frames out of
# arbitrary short reads, the rendezvous book a joiner reads from the
# coordinator, the shm ring's record framing, and the trace collector's
# ingest-then-report path (longer runs: go test -fuzz=... ). Minimizing a new input is capped
# at 2 s, so each 30 s budget goes to new inputs rather than to shrinking
# old ones.
fuzz:
	$(GO) test -fuzz=FuzzParseTopology -fuzztime=30s -fuzzminimizetime=2s ./internal/topology/
	$(GO) test -fuzz=FuzzParsePlan -fuzztime=30s -fuzzminimizetime=2s ./internal/faults/
	$(GO) test -fuzz=FuzzTopologyDelta -fuzztime=30s -fuzzminimizetime=2s ./internal/topology/
	$(GO) test -fuzz=FuzzScheduleRequest -fuzztime=30s -fuzzminimizetime=2s ./internal/sched/
	$(GO) test -fuzz=FuzzMessagePairs -fuzztime=30s -fuzzminimizetime=2s ./internal/schedule/
	$(GO) test -fuzz=FuzzFrameHeader -fuzztime=30s -fuzzminimizetime=2s ./internal/mpi/tcp/
	$(GO) test -fuzz=FuzzFrameStream -fuzztime=30s -fuzzminimizetime=2s ./internal/mpi/tcp/
	$(GO) test -fuzz=FuzzRendezvousBook -fuzztime=30s -fuzzminimizetime=2s ./internal/mpi/tcp/
	$(GO) test -fuzz=FuzzRingRecord -fuzztime=30s -fuzzminimizetime=2s ./internal/mpi/shm/
	$(GO) test -fuzz=FuzzTraceIngest -fuzztime=30s -fuzzminimizetime=2s ./internal/obsv/collect/
