GO ?= go

.PHONY: build test race chaos bench-json bench-json-quick bit-identity fmt vet

build:
	$(GO) build ./...
	$(GO) build ./cmd/lsample ./cmd/lserved ./cmd/lsexp ./cmd/lsbench ./cmd/lsharded

test:
	$(GO) test ./...

# The parallel runtimes under the race detector (GOMAXPROCS pinned > 1 so
# goroutines genuinely interleave), plus the CI gate: sharded and
# vertex-parallel draws — MRF and CSP alike — must equal centralized
# sequential draws byte-for-byte.
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/cluster/... ./internal/partition/... ./internal/transport/... ./internal/obs/...
	GOMAXPROCS=4 $(GO) test -race -run 'Parallel|CSP|Remote|Worker|Trace|Metrics|Drain|SoA' ./internal/chains/ ./internal/csp/ ./internal/service/ .

# The self-healing gate, under the race detector: real lsharded worker
# processes are SIGKILLed and SIGSTOPped in the middle of draws, and the
# draws must recover via standby replacement with byte-identical output
# (MRF and CSP, two shard counts each); a dead fleet with no standby
# must fail with a typed WorkerError, never a partial sample; a dead
# fleet behind lserved must degrade to the bit-identical local fallback
# and open the circuit breaker; and the transport dial/deadline paths
# must stay bounded against refused, late-accepting, and half-open
# peers.
chaos:
	GOMAXPROCS=4 $(GO) test -race -count=1 -timeout 10m \
		-run 'TestChaos|TestDialRetry|TestDialControl|TestPingHalfOpenPeerTimesOut|TestReadControlHalfOpenPeerTimesOut|TestPingLiveWorkerLoopback|TestBreakerStateMachine|TestDegradedFallbackBitIdentical|TestCentralizedDrawsBypassBreaker|TestProbeWorkersDeadFleet|TestSampleContext' \
		./internal/transport/ ./internal/service/ .

bit-identity:
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestShardedBitIdentical|TestWithShardsBitIdentical|TestServerShardedDrawBitIdentical|TestParallelRoundsMatchSequential|TestWithParallelRoundsBitIdentical|TestServerParallelDrawBitIdentical|TestTransportEngineBitIdentical|TestRemoteMRFBitIdentical|TestRegistryRemoteWorkers|TestCrossProcessShardedBitIdentical|TestSampleDiagnosedBitIdentical|TestRoundsAuto|TestSoARoundsMatchSequential|TestSampleNSoABitIdentical|TestServedDrawFlavorsBitIdentical|TestOneShotHonorsTransport|TestSampleNDistributed|TestLsampleSeedsAgree' \
		./internal/cluster/ ./internal/chains/ ./internal/service/ ./cmd/lsample/ .
	GOMAXPROCS=4 $(GO) test -count=1 -run 'MatchesReference|TestCSPShardedBitIdentical|TestCSPParallelRoundsMatchSequential|TestWithShardsCSPBitIdentical|TestWithParallelRoundsCSPBitIdentical|TestCSPSamplerBatchDeterminism|TestServerCSPShardedDrawBitIdentical|TestServerCSPParallelDrawBitIdentical|TestRemoteCSPBitIdentical|TestCrossProcessCSPBitIdentical|TestCSPSampleDiagnosedBitIdentical|TestCSPRoundsAuto|TestCSPSoARoundsMatchSequential|TestSampleCSPNSoABitIdentical' \
		./internal/csp/ ./internal/cluster/ ./internal/service/ .

# Perf trajectory: run the core benchmark suite and write machine-readable
# results (ns/op, allocs/op, vertices/sec, shard/parallel speedups, the CSP
# chain suite, the observability-overhead suite, and speedup_vs the previous
# PR's report) to the repo root.
bench-json:
	GOMAXPROCS=4 $(GO) run ./cmd/lsbench -out BENCH_PR10.json -baseline BENCH_PR8.json

# CI smoke variant: small sizes, throwaway output. Fails if a benchmark
# matched in the checked-in baseline regresses >20% on the same host class
# (cross-class runs skip the comparison — see lsbench -baseline).
bench-json-quick:
	GOMAXPROCS=4 $(GO) run ./cmd/lsbench -quick -baseline BENCH_PR10.json -max-regress 0.20 -out /tmp/locsample-bench.json

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
