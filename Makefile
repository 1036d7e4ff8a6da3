# Offline build/test/bench entry points. Everything here runs with the
# Go toolchain and the standard library only — no network, no external
# binaries — so `make bench` gives the same regression verdicts on a
# laptop as in CI.

GO ?= go

.PHONY: all build test race soak bench bench-dispatch bench-authz bench-keycom bench-federation bench-gateway fuzz-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# soak runs the server lifecycle tests — the shared netserve package, the
# KeyCOM server and daemon, the WebCom master and client Close/Shutdown
# paths and the CORBA ORB, the delegation round trips whose losing
# speculative branch is awaited, and the daemon harness's signal → drain
# lifecycle with every daemon built on it — fifty times under the race
# detector: a Close or Shutdown race is rare per run, so one run proves
# little.
SOAK_TESTS = TestServerShutdown|TestNetworkRoundTrip|TestMasterShutdown|TestMasterClose|TestClientClose|TestAcceptLoop|TestGIOP|TestCloseIsABarrier|TestShutdown|TestServeAfterClose|TestDaemonRestart|TestSpeculativeSteal|TestDenialNeverSpeculated|TestDelegationStreamsProgress|TestClosureRefMissResent|TestDrainPastTimeoutSevers|TestServeErrorIsReturned|TestCloseErrorFailsShutdown|TestClientDrainsOnStop|TestMasterDrainsOnStop|TestAuthzdAnnouncesCrashRepair

soak:
	$(GO) test -race -count=50 -timeout 30m -run '$(SOAK_TESTS)' ./internal/netserve/ ./internal/keycom/ ./internal/webcom/ ./internal/middleware/corba/ ./internal/daemon/ ./cmd/keycomd/ ./cmd/authzd/ ./cmd/webcom-master/ ./cmd/webcom-client/

# bench runs the three gated benchmark families -count=5 and compares
# each median against its recorded BENCH_*.json baseline via
# tools/benchcmp. Thresholds are deliberately loose (1.5x) — they catch
# real regressions, not scheduler noise; CI holds the tighter gates.
bench: bench-dispatch bench-authz bench-keycom bench-federation bench-gateway

bench-dispatch:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatch|BenchmarkRunUnderFaults' -benchmem -count=5 -timeout 30m ./internal/webcom/ \
		| $(GO) run ./tools/benchcmp -baseline BENCH_webcom.json -threshold 1.5

bench-authz:
	$(GO) test -run '^$$' -bench 'Benchmark' -benchmem -count=5 -timeout 30m ./internal/authz/ \
		| $(GO) run ./tools/benchcmp -baseline BENCH_authz.json -threshold 1.5

# The default keycom tiers (10k/100k principals) gate here; the 1M tier
# is opt-in via KEYCOM_BENCH_1M=1 and is recorded informationally in
# BENCH_keycom.json rather than gated (seeding it takes minutes).
bench-keycom:
	$(GO) test -run '^$$' -bench 'BenchmarkStore(Commit|UserHolds|Recover)/' -benchmem -count=5 -timeout 30m ./internal/keycom/ \
		| $(GO) run ./tools/benchcmp -baseline BENCH_keycom.json -threshold 1.5

# bench-federation gates the amortised federation plane: every section
# within 2x of its recorded median (two-tier wall-clock medians carry
# more scheduler noise than the micro-benches, hence the wider
# threshold), and the warm repeat-delegation median both under the
# 100us absolute ceiling and >=10x faster than the pre-amortisation
# 5.7ms baseline.
bench-federation:
	$(GO) test -run '^$$' -bench 'BenchmarkFederatedRun' -benchmem -count=5 -timeout 30m ./internal/webcom/ > fed_bench.txt
	$(GO) run ./tools/benchcmp -baseline BENCH_federation.json -input fed_bench.txt -threshold 2
	$(GO) run ./tools/benchcmp -baseline BENCH_federation.json -input fed_bench.txt -section pre_amortised_baseline -match 'BenchmarkFederatedRun/warm$$' -min-speedup 10 -max-ns 100000
	rm -f fed_bench.txt

# bench-gateway gates the authorise-as-a-service front door. The
# hot-path benches hold the usual 1.5x regression threshold; the
# overload pair gates behaviour under saturation: p99 of admitted
# requests under an absolute ceiling, and the shed rate above a floor
# (the headroom metric reports 1000 - shed permille as "ns/op", so a
# -max-ns ceiling on it IS a floor on the shed rate — see
# internal/gateway/bench_test.go).
bench-gateway:
	$(GO) test -run '^$$' -bench 'BenchmarkGateway' -benchmem -count=5 -timeout 30m ./internal/gateway/ > gw_bench.txt
	$(GO) run ./tools/benchcmp -baseline BENCH_gateway.json -input gw_bench.txt -match 'BenchmarkGatewayDecide' -threshold 1.5
	$(GO) run ./tools/benchcmp -baseline BENCH_gateway.json -input gw_bench.txt -match 'BenchmarkGatewayOverload/p99$$' -threshold 3 -max-ns 500000000
	$(GO) run ./tools/benchcmp -baseline BENCH_gateway.json -input gw_bench.txt -match 'BenchmarkGatewayOverload/shed-headroom-permille$$' -threshold 1000 -max-ns 500
	rm -f gw_bench.txt

fuzz-smoke:
	$(GO) test -run Fuzz -fuzz=FuzzVerify -fuzztime=10s ./internal/gateway/jwtbridge
	$(GO) test -run Fuzz -fuzz=FuzzUpdateRequestVerify -fuzztime=10s ./internal/keycom
	$(GO) test -run Fuzz -fuzz=FuzzMsgDecode -fuzztime=10s ./internal/webcom
	$(GO) test -run Fuzz -fuzz=FuzzCodecRoundTrip -fuzztime=10s ./internal/webcom
	$(GO) test -run Fuzz -fuzz=FuzzCodecDecode -fuzztime=10s ./internal/webcom
