GO ?= go

# W is where every smoke, check and report target (and its CI twin) leaves
# its stores, reports and logs; `make clean` removes it.
W := .work

.PHONY: build test pairs cli-guard pool-guard arena-guard policy-guard op-guard fma-guard test-race race coord-soak cover fuzz-smoke bench-module profile-cold profile-resume profile-figures profile-serve fmt vet loc clean report refdata paper-smoke pathfind-smoke coord-smoke serve-smoke energy-check arch-check calibration-check

build:
	$(GO) build ./...

test: fmt vet cli-guard pool-guard arena-guard policy-guard op-guard fma-guard
	$(GO) test ./...

# cli-guard keeps internal/cli the one command toolkit: a command that
# re-declares a shared flag, parses a scale or builds its own interrupt
# context has forked the path cli.Main and the flag groups own. CI runs this
# target.
cli-guard:
	@if grep -rnE 'signal\.NotifyContext|ParseScale\(|"(scale|jobs|eps|writeref|cpuprofile|memprofile)"' --include='*.go' --exclude='*_test.go' cmd; then \
		echo "cli-guard: the lines above belong in internal/cli (cli.Main, cli.Sim, cli.Report, cli.Prof)"; exit 1; fi

# pool-guard keeps engine.Each the one index pool: a sweep that spins its own
# workers bypasses the one place a per-point span or a pool change goes. The
# goroutine fan-outs that are not index pools are allowed where they live: a
# launch's per-DPU batches (internal/host), lease workers and heartbeats
# (internal/coord) and the concurrent-writer conformance suite
# (internal/explore/storetest). CI runs this target.
pool-guard:
	@if grep -rnE 'sync\.WaitGroup|runtime\.GOMAXPROCS' --include='*.go' --exclude='*_test.go' --exclude-dir=$(W) --exclude-dir=benchmark . | \
		grep -vE '^\./internal/(engine|host|coord|explore/storetest)/'; then \
		echo "pool-guard: the lines above run a worker pool outside internal/engine; use engine.Each"; exit 1; fi

# arena-guard keeps DPU-shell reuse behind internal/host: every System
# borrows its arena from the host's process-wide free list, so no other layer
# has an arena to hold or pass. A file that names one grows back the plumbing
# that list replaced. The core defines arenas; the benchmark's shell ladder
# times them directly. CI runs this target.
arena-guard:
	@if grep -rnE 'core\.Arena|NewArena|NewInArena' --include='*.go' --exclude='*_test.go' --exclude-dir=$(W) --exclude-dir=benchmark . | \
		grep -vE '^\./internal/(core|host)/'; then \
		echo "arena-guard: the lines above handle DPU-shell arenas; host.NewSystemFromProgram and System.Release own them"; exit 1; fi

# policy-guard keeps every scheduling policy behind the serve.Policy
# interface: a request carries its SLO deadline, so no part of a run needs to
# know which built-in policy it holds. Code that asserts a built-in policy's
# concrete type treats that policy specially, and the same policy behind a
# wrapper (a tracing decorator, a test's call log) then schedules differently.
# CI runs this target.
policy-guard:
	@if grep -rnE '\.\(\*?(fifo|weightedFair|sloAware)\)' --include='*.go' --exclude='*_test.go' --exclude-dir=$(W) .; then \
		echo "policy-guard: the lines above assert a built-in policy's type; a wrapped policy must schedule as the bare one"; exit 1; fi

# op-guard keeps the opcode table (internal/isa) the one place that says what
# an opcode is — mnemonic, format, mix class, memory access, sources: a
# `case isa.Op…` arm anywhere else grows back the per-opcode switch chains
# the table replaced. The core's interpreter (internal/core/exec.go) is
# allowed: what each opcode does is its job. CI runs this target.
op-guard:
	@if grep -rnE 'case isa\.Op' --include='*.go' --exclude='*_test.go' --exclude-dir=$(W) . | \
		grep -vE '^\./internal/(isa/|core/exec\.go:)'; then \
		echo "op-guard: the lines above switch on opcodes; per-opcode facts belong in the opcode table (internal/isa)"; exit 1; fi

# fma-guard keeps float results the same bits on every GOARCH. Go may fuse
# x*y + z into one rounding; amd64 never does, but arm64, ppc64le, riscv64
# and s390x do, each at its own sites, so a fused site gives such a machine
# different bits from the goldens. Cross-compiling the module for each of
# them with -S needs no emulator; any fused op in module code fails. One
# pattern covers all four spellings: FMADDD, FMSUBD, FNMADDD and FNMSUBD
# (arm64, riscv64), FMADD, FMSUB, FNMADD and FNMSUB (ppc64le, s390x), and
# their single-precision forms. Round the product with an explicit
# conversion, float64(x*y) + z. Each GOARCH costs about 25 s cold; the
# compiler's output replays from the build cache, so a warm run is quick.
# CI runs this target.
FMA_ARCHES = arm64 ppc64le riscv64 s390x
fma-guard:
	@found=$$(for arch in $(FMA_ARCHES); do \
		{ GOARCH=$$arch $(GO) build -o /dev/null -gcflags='upim/...=-S' ./... 2>&1 || echo "fma-guard: the $$arch build failed"; } | \
			grep -E '\sFN?M(ADD|SUB)[DS]?\s|^fma-guard:' | sed "s|^|$$arch: |"; \
	done); \
	if [ -n "$$found" ]; then echo "$$found"; \
		echo "fma-guard: the lines above fuse a multiply-add; round the product with float64(x*y)"; exit 1; fi

# test-race mirrors the CI race job: the full suite under the race detector,
# including the coordinator's crash test, whose concurrent workers + lease
# reclaim are exactly the code the detector is for.
test-race:
	$(GO) test -race ./...

race: test-race

# coord-soak is the CI race job's second step: the crash test (four served
# workers killed mid-shard, a torn store write, byte-identical artifacts) 50
# times at GOMAXPROCS 1 and 4 under the race detector. Its kill schedule is
# sequenced by the test, not by timers, so one failure in 100 is a bug.
coord-soak:
	$(GO) test -race -cpu 1,4 -count 50 -run '^TestCrashResumeByteIdentical$$' ./internal/coord

# cover counts a statement as covered when any package's tests execute it
# (-coverpkg=./...), then prints the functions none of them reach a line of:
# the 0.0% rows are where dead branches and untested paths show. CI runs the
# same coverage step. Set mode, because atomic counters shared by the
# simulator's goroutines cost ~10x on the cycle core; -short skips the
# suite-sized simulations that a plain `go test ./...` runs.
cover:
	$(GO) test -short -covermode=set -coverprofile=coverage.out -coverpkg=./... ./...
	@$(GO) tool cover -func=coverage.out | grep -E '[[:space:]]0\.0%$$' || true

# pathfind-smoke mirrors the CI job: a tiny exploration run three times
# against one store; the resumed runs must be fully cached and byte-identical,
# and the last one resolves its hits on eight workers — parallel resolve must
# be invisible byte for byte. CI runs this target.
pathfind-smoke:
	rm -rf $(W)/pfstore $(W)/pfreport1 $(W)/pfreport2 $(W)/pfreport8 $(W)/pf-resume.log $(W)/pf-resume8.log
	mkdir -p $(W)
	$(GO) run ./cmd/pathfind -bench VA,BS -axes "tasklets=1,4;link=1,2" -scale tiny -store $(W)/pfstore -pareto -goals energy,cost -energy -out $(W)/pfreport1
	$(GO) run ./cmd/pathfind -bench VA,BS -axes "tasklets=1,4;link=1,2" -scale tiny -store $(W)/pfstore -pareto -goals energy,cost -energy -out $(W)/pfreport2 2> $(W)/pf-resume.log
	cat $(W)/pf-resume.log
	grep -q ", 0 simulated," $(W)/pf-resume.log
	diff -r $(W)/pfreport1 $(W)/pfreport2
	$(GO) run ./cmd/pathfind -bench VA,BS -axes "tasklets=1,4;link=1,2" -scale tiny -store $(W)/pfstore -jobs 8 -pareto -goals energy,cost -energy -out $(W)/pfreport8 2> $(W)/pf-resume8.log
	cat $(W)/pf-resume8.log
	grep -q ", 0 simulated," $(W)/pf-resume8.log
	diff -r $(W)/pfreport2 $(W)/pfreport8

# paper-smoke mirrors the CI job: every benchmark at the paper's Table II
# sizes, one point per benchmark per mode (scratchpad and cache, and GEMV's
# SIMT) at 1 and 16 tasklets, each checked against its golden model. Any
# failure — at launch or in the check — fails the target, and so does a point
# missing from the space: a dataset a kernel cannot stage is refused by
# Benchmark.Check before launch, which would drop it silently here. The 66 is
# 16 benchmarks x 2 modes x 2 tasklet counts, plus GEMV's 2 SIMT points.
paper-smoke:
	mkdir -p $(W)
	$(GO) run ./cmd/pathfind -scale paper -axes "tasklets=1,16;mode=scratchpad,cache,simt" -jobs 2 > /dev/null 2> $(W)/paper-smoke.log
	cat $(W)/paper-smoke.log
	grep -q "^pathfind: 66 points: 0 cached, 66 simulated, 0 failed$$" $(W)/paper-smoke.log

# coord-smoke mirrors the CI job: the served topology in real processes (it
# ran the in-process `pathfind -coordinator` before that path was retired).
# One pathfind binary serves the coordinator and the store on a fixed
# loopback port; once /v1/status answers, two `pathfind work` processes drain
# its leased shards, and the server must exit on its own after the last one.
# A single-process run over the served store then merges the exploration: it
# must simulate nothing, and its report must match a fresh single-process run
# byte for byte. The server's and each worker's events logs must be
# non-empty. Last, a store-only `pathfind serve` over the filled store serves
# the same merge over HTTP: every point a GET hit (`, 0 simulated,`) and the
# report the fresh run's byte for byte — a GET that degraded to a miss would
# re-simulate and still match, so the grep is what checks the wire.
coord-smoke:
	rm -rf $(W)/coord
	mkdir -p $(W)/coord/events
	$(GO) build -o $(W)/coord/pathfind ./cmd/pathfind
	@set -e; pf=$(W)/coord/pathfind; addr=127.0.0.1:17345; ev=$(W)/coord/events; \
	$$pf serve -addr $$addr -store $(W)/coord/store -shard 2 -bench VA,BS -axes "tasklets=1,4;link=1,2" -scale tiny -events $$ev/serve.jsonl & srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do curl -sf http://$$addr/v1/status > /dev/null && break; sleep 0.2; done; \
	curl -sf http://$$addr/v1/status; echo; \
	$$pf work -connect http://$$addr -name w0 -events $$ev/w0.jsonl & w0=$$!; \
	$$pf work -connect http://$$addr -name w1 -events $$ev/w1.jsonl & w1=$$!; \
	wait $$w0; wait $$w1; \
	for i in $$(seq 50); do kill -0 $$srv 2>/dev/null || break; sleep 0.2; done; \
	if kill -0 $$srv 2>/dev/null; then echo "coord-smoke: the server is still up after every shard is done"; exit 1; fi; \
	wait $$srv
	$(W)/coord/pathfind -bench VA,BS -axes "tasklets=1,4;link=1,2" -scale tiny -store $(W)/coord/store -pareto -goals energy,cost -energy -out $(W)/coord/merged 2> $(W)/coord/merge.log
	cat $(W)/coord/merge.log
	grep -q ", 0 simulated," $(W)/coord/merge.log
	$(W)/coord/pathfind -bench VA,BS -axes "tasklets=1,4;link=1,2" -scale tiny -pareto -goals energy,cost -energy -out $(W)/coord/fresh > /dev/null
	diff -r $(W)/coord/merged $(W)/coord/fresh
	test -s $(W)/coord/events/serve.jsonl
	test -s $(W)/coord/events/w0.jsonl
	test -s $(W)/coord/events/w1.jsonl
	@set -e; pf=$(W)/coord/pathfind; addr=127.0.0.1:17345; \
	$$pf serve -addr $$addr -store $(W)/coord/store & srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do curl -sf http://$$addr/v1/count > /dev/null && break; sleep 0.2; done; \
	$$pf -bench VA,BS -axes "tasklets=1,4;link=1,2" -scale tiny -store http://$$addr -pareto -goals energy,cost -energy -out $(W)/coord/remote 2> $(W)/coord/remote.log; \
	cat $(W)/coord/remote.log; \
	grep -q ", 0 simulated," $(W)/coord/remote.log; \
	diff -r $(W)/coord/remote $(W)/coord/fresh

# serve-smoke mirrors the CI job: a tiny multi-tenant serving run (Poisson
# arrivals, two tenants, weighted-fair + FIFO load sweep) validated against
# the committed references at eps 1e-12, run at -jobs 1 and -jobs 8; the
# virtual-time event loop makes the two reports byte-identical. Then a
# three-policy sweep under admission control, so slo runs from the CLI and
# a sweep worker reuses its replay buffers right after a cell that dropped
# requests: no references, but -jobs 1 and -jobs 8 must agree byte for byte.
serve-smoke:
	rm -rf $(W)/servereport1 $(W)/servereport8 $(W)/servequeue1 $(W)/servequeue8
	$(GO) run ./cmd/upimulator serve -loads 0.5,0.8,1.1 -policies fifo,wfq -jobs 1 -check -eps 1e-12 -out $(W)/servereport1
	$(GO) run ./cmd/upimulator serve -loads 0.5,0.8,1.1 -policies fifo,wfq -jobs 8 -check -eps 1e-12 -out $(W)/servereport8
	diff -r $(W)/servereport1 $(W)/servereport8
	$(GO) run ./cmd/upimulator serve -loads 0.5,1.1,3 -policies fifo,wfq,slo -maxqueue 4 -jobs 1 -out $(W)/servequeue1
	$(GO) run ./cmd/upimulator serve -loads 0.5,1.1,3 -policies fifo,wfq,slo -maxqueue 4 -jobs 8 -out $(W)/servequeue8
	diff -r $(W)/servequeue1 $(W)/servequeue8

# energy-check is the CI job: regenerate the energy breakdown at tiny scale,
# validate it against the committed reference at eps 1e-12, and leave the
# browsable report under $(W)/energy-report/. An unknown -scale must be an
# error, never a silent run at the zero scale (tiny), and so must a -profile
# that nothing would read.
energy-check:
	rm -rf $(W)/energy-report
	$(GO) run ./cmd/figures -exp energy -scale tiny -out $(W)/energy-report -check -eps 1e-12
	! $(GO) run ./cmd/figures -exp table1 -scale bogus
	! $(GO) run ./cmd/upimulator -kernel all -profile /dev/null

# arch-check mirrors the CI job: the canonical cross-architecture Pareto
# frontier run (UPMEM DPU vs HBM-PIM bank-level MAC over GEMV and VA),
# golden-checked against the committed references at eps 1e-12; resumed from
# its own store (must be fully cached and byte-identical); re-run at -jobs 8
# against a fresh store (parallelism must be invisible byte for byte); and
# cross-checked against the crossarch figure experiment, which computes the
# same frontier through internal/figures. Last, HBM-PIM's Check must refuse the
# UPMEM-only link and ILP levels: of the 8 raw points only the 4 UPMEM ones
# and the default-configuration hbm-pim one are feasible.
arch-check:
	rm -rf $(W)/archstore $(W)/archstore8 $(W)/archreport1 $(W)/archreport2 $(W)/archreport8 $(W)/arch-resume.log
	mkdir -p $(W)
	$(GO) run ./cmd/pathfind -bench GEMV,VA -axes "arch=upmem,hbm-pim;dpus=1,2" -scale tiny -store $(W)/archstore -jobs 1 -pareto -goals time,energy,cost -energy -check -eps 1e-12 -out $(W)/archreport1
	$(GO) run ./cmd/pathfind -bench GEMV,VA -axes "arch=upmem,hbm-pim;dpus=1,2" -scale tiny -store $(W)/archstore -jobs 1 -pareto -goals time,energy,cost -energy -check -eps 1e-12 -out $(W)/archreport2 2> $(W)/arch-resume.log
	cat $(W)/arch-resume.log
	grep -q ", 0 simulated," $(W)/arch-resume.log
	$(GO) run ./cmd/pathfind -bench GEMV,VA -axes "arch=upmem,hbm-pim;dpus=1,2" -scale tiny -store $(W)/archstore8 -jobs 8 -pareto -goals time,energy,cost -energy -check -eps 1e-12 -out $(W)/archreport8
	diff -r $(W)/archreport1 $(W)/archreport2
	diff -r $(W)/archreport1 $(W)/archreport8
	$(GO) run ./cmd/figures -exp crossarch -scale tiny -check -eps 1e-12
	$(GO) run ./cmd/pathfind -bench GEMV -axes "arch=upmem,hbm-pim;link=1,4;ilp=base,DRSF" -scale tiny -plan 2>&1 | grep "5 feasible points (8 raw)"

# calibration-check mirrors the CI job: rerun the analytical estimator's
# calibration suite on the cycle-exact simulator and verify the committed
# bounds-only artifact (internal/estimate/calibration/default.json) is
# byte-identical to the refit and that every measured per-figure relative
# error stays within its committed bound.
calibration-check:
	$(GO) run ./cmd/pathfind calibrate -check

# fuzz-smoke runs every Fuzz* target in the module past its seed corpus for a
# fixed 5 s each. Targets are found with `go test -list`, so a new one is
# picked up without editing this file; -fuzzminimizetime 0 keeps the budget
# for fuzzing, not for minimising multi-KB inputs. The target list is left in
# $(W)/fuzz-targets.txt. CI runs this target.
fuzz-smoke:
	mkdir -p $(W)
	$(GO) test -list '^Fuzz' ./... > $(W)/fuzz-targets.txt
	awk '/^Fuzz/ {f[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2, f[i]; n = 0}' $(W)/fuzz-targets.txt | \
	while read pkg fz; do \
		echo "== $$pkg $$fz"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fz$$" -fuzztime 5s -fuzzminimizetime 0 || exit 1; \
	done

# bench-module builds and tests the separate upim/benchmark module
# (benchmark/go.mod, `replace upim => ../`): root `go build/test ./...` do
# not descend into it, so this is what catches a root API change breaking
# the repo benchmark before the benchmark is next run.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# profile-cold is where a "which layer moved" line in CHANGES.md comes from:
# the pathfind_cold space of the repo benchmark (4 kernels x 72 designs,
# -jobs 2, a fresh store) through pathfind's CPU profiler, top 25 by flat
# time. The profile stays in $(W)/profile-cold/cpu.prof for -list/-peek.
profile-cold:
	rm -rf $(W)/profile-cold
	mkdir -p $(W)/profile-cold
	$(GO) build -o $(W)/profile-cold/pathfind ./cmd/pathfind
	$(W)/profile-cold/pathfind -bench VA,BS,GEMV,RED -axes "tasklets=1,4,16;freq=350,700;link=1,4;ilp=base,DR,DRSF;mode=scratchpad,cache" -scale tiny -jobs 2 -store $(W)/profile-cold/store -cpuprofile $(W)/profile-cold/cpu.prof > /dev/null
	$(GO) tool pprof -top -nodecount 25 $(W)/profile-cold/pathfind $(W)/profile-cold/cpu.prof

# profile-resume is profile-cold's twin for the resumed run, in one process:
# BenchmarkResumedPathfind (resume_bench_test.go) populates a store with the
# pathfind_cold space once, then runs 240 resumed passes shaped like the repo
# benchmark's pathfind_resume — open the store, explore (every point a hit),
# the four tables of `pathfind -pareto -goals time,energy,cost -energy`, the
# report — under the CPU profiler. The populating simulation is left out of
# the view (-ignore prim.RunSpec) and shares are of what remains, some 2.5 s
# of samples on 2 vCPU, so a 1 % layer is about 25 samples. The profile
# stays in $(W)/profile-resume/cpu.prof, beside the test binary pprof needs.
profile-resume:
	rm -rf $(W)/profile-resume
	mkdir -p $(W)/profile-resume
	$(GO) test -run '^$$' -bench '^BenchmarkResumedPathfind$$' -benchtime 240x -o $(W)/profile-resume/upim.test -cpuprofile $(W)/profile-resume/cpu.prof .
	$(GO) tool pprof -top -nodecount 25 -relative_percentages -ignore 'prim\.RunSpec' $(W)/profile-resume/upim.test $(W)/profile-resume/cpu.prof

# profile-figures is profile-cold's twin for the figure suite: every
# experiment at tiny scale, -jobs 2, as the one deduplicated sweep the figures
# CLI runs, through its CPU profiler. figures_tiny times the experiments one
# by one instead, so a point two figures read runs twice there and once here.
# The profile stays in $(W)/profile-figures/cpu.prof.
profile-figures:
	rm -rf $(W)/profile-figures
	mkdir -p $(W)/profile-figures
	$(GO) build -o $(W)/profile-figures/figures ./cmd/figures
	$(W)/profile-figures/figures -exp all -scale tiny -jobs 2 -cpuprofile $(W)/profile-figures/cpu.prof > /dev/null
	$(GO) tool pprof -top -nodecount 25 $(W)/profile-figures/figures $(W)/profile-figures/cpu.prof

# profile-serve is profile-cold's twin for the serve path: upimulator serve at
# the repo benchmark's serve_sweep shape (two tenants over four kernels, 25 000
# requests each, 3 policies x 4 loads, -jobs 2) through its CPU profiler. The
# command also serves and prints one single-load run, whose 50 000-row request
# table would dominate the profile, so pprof is focused on the replay, the
# sweep's cells and the engine's profiling workers. The profile stays in
# $(W)/profile-serve/cpu.prof.
profile-serve:
	rm -rf $(W)/profile-serve
	mkdir -p $(W)/profile-serve
	$(GO) build -o $(W)/profile-serve/upimulator ./cmd/upimulator
	$(W)/profile-serve/upimulator serve -tenants "latency=VA+GEMV:3;batch=BS+RED:1" -requests 25000 -loads 0.5,0.8,0.95,1.1 -policies fifo,wfq,slo -jobs 2 -cpuprofile $(W)/profile-serve/cpu.prof > /dev/null
	$(GO) tool pprof -top -nodecount 25 -focus 'serve\.\(\*prepared\)|engine\.' $(W)/profile-serve/upimulator $(W)/profile-serve/cpu.prof

# pairs is how a claimed gain is measured: N pairs of runs of one benchmark
# workload, PARENT (extracted with git archive into .work/pairs/parent) and
# the working tree alternately, then each side's quartiles of every
# end-to-end metric, the wins per metric and the failed counts
# (scripts/pairs.sh). Here W names the workload, given on the command line:
# make pairs PARENT=<rev> W=figures_tiny N=10 SEED=1
PARENT ?= HEAD
N ?= 10
SEED ?= 1
pairs:
	@test "$(origin W)" = "command line" || { echo "usage: make pairs PARENT=<rev> W=<workload> [N=10] [SEED=1]"; exit 2; }
	./scripts/pairs.sh $(PARENT) $(W) $(N) $(SEED)

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# loc prints the line count ROADMAP re-anchors and simplicity PRs quote:
# tracked non-test Go outside benchmark/, per package directory and in total.
loc:
	@./scripts/loc.sh

clean:
	rm -rf $(W) coverage.out

# report regenerates every figure at tiny scale, checks it against the
# references, and writes the browsable report to $(W)/report; a second run on
# one worker must write the same report byte for byte. CI runs this target.
report:
	rm -rf $(W)/report $(W)/report1
	$(GO) run ./cmd/figures -exp all -scale tiny -out $(W)/report -check
	$(GO) run ./cmd/figures -exp all -scale tiny -jobs 1 -out $(W)/report1 > /dev/null
	diff -r $(W)/report $(W)/report1

refdata:
	$(GO) run ./cmd/figures -exp all -scale tiny -writeref internal/figures/refdata
	$(GO) run ./cmd/pathfind -bench GEMV,VA -axes "arch=upmem,hbm-pim;dpus=1,2" -scale tiny -pareto -goals time,energy,cost -energy -writeref internal/figures/refdata
