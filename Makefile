GO ?= go

.PHONY: check fmt vet build build-obsv-off test race alloc-gates bench fuzz

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

# bench is the repository's one benchmark: it runs every workload of
# BENCHMARK.json twice (bench/run.sh) and fails if the two sets disagree.
# The packages' Benchmark* functions stay runnable with go test -bench.
bench:
	bash bench/run.sh --check

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
