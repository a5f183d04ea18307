#!/bin/bash
# verify.sh — the repo's tier-1 gate. Every PR must leave this green.
#
#   ./verify.sh          # formatting, vet, newsum-lint, tests, race pass
#
# The steps mirror ROADMAP.md "Standing gates": the stdlib static-analysis
# gate (cmd/newsum-lint) and the race-enabled test pass over the
# concurrency-bearing packages run on every verify, not just in CI.
set -eu

cd "$(dirname "$0")"

# step closes the running step with its wall time in seconds (bash's
# SECONDS) and opens the next, so one log gives every step's cost.
step=""
step() {
	if [ -n "$step" ]; then
		echo "== $step: $((SECONDS - step_start)) s =="
	fi
	step=$1
	step_start=$SECONDS
	if [ -n "$step" ]; then
		echo "== $step =="
	fi
}

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

step "go vet"
go vet ./...

step "newsum-lint"
# -baseline grandfathers nothing today (lint.baseline.json is the empty
# list) but keeps the gate honest two ways: new findings fail the build,
# and a baseline entry that no longer matches anything fails as stale.
go run ./cmd/newsum-lint -baseline lint.baseline.json ./...

step "go test"
go test ./...

step "allocation pins, one package at a time with nothing run before them"
# The AllocsPerRun / MemStats pins are the zero-allocation contract
# (docs/testing.md "Allocation contract"). Run alone, no earlier test has
# warmed the heap or the runtime's caches, so a count that holds only
# after some other test ran fails here.
go test -count=1 -run 'Allocs|Allocate|Mallocs' ./internal/...

step "benchmark module (vet, tests)"
# benchmark/ is a module of its own (BENCHMARK.json's harness), so the
# root ./... patterns above skip it; its tests re-check the exact counts
# pinned in benchmark/pinned.json on small inputs.
(cd benchmark && go vet ./... && go test ./...)

step "fuzz seed replay (checksum, vec FuzzLeafKernels + FuzzNorm2Leaf + FuzzVLOKernels, sparse FuzzTriSchedule + FuzzRowPlan, service FuzzEncodeProgress + FuzzRequestBuild, router FuzzRelayStream, mmio FuzzRead, checkpoint FuzzDecodeLossy + FuzzDecodeDiff)"
go test -run Fuzz -fuzz='^$' ./internal/checksum/...
go test -run Fuzz -fuzz='^$' ./internal/vec/...
go test -run Fuzz -fuzz='^$' ./internal/sparse/...
go test -run Fuzz -fuzz='^$' ./internal/service/...
go test -run Fuzz -fuzz='^$' ./internal/router/...
go test -run Fuzz -fuzz='^$' ./internal/mmio/...
go test -run Fuzz -fuzz='^$' ./internal/checkpoint/...

step "leaves: which one this host ran, then the portable ones (AVX off; -tags purego: vec, kernel, checksum, sparse, precond, core, par)"
# On an amd64 with AVX the full blocks of every (Σ, Σ|·|) range run in
# internal/vec/leaf_amd64.s; without it, for ragged blocks, and everywhere
# else they run the Go lanes. TestLeafDispatch logs which of the two every
# golden above ran on and, if that was AVX, repeats the leaf tests with the
# dispatch variable off, so the branch a non-AVX amd64 takes runs on every
# verify. -tags purego then links the Go loops every other platform gets —
# leaves, the norm's leaf and the Axpy/Xpby/Axpby prefix — which must pass
# the same goldens, freeze rows and pins on the same host: one arithmetic,
# bit for bit.
leaf_out=$(go test -v -run '^TestLeafDispatch$' ./internal/vec/) || {
	echo "$leaf_out" >&2
	exit 1
}
echo "$leaf_out" | grep 'leaf:' || echo "    leaf: portable lanes (no amd64 assembly linked)"
go test -tags purego ./internal/vec/... ./internal/kernel/... ./internal/checksum/... ./internal/sparse/... ./internal/precond/... ./internal/core/... ./internal/par/...

step "non-amd64 build (GOARCH=arm64: build all, vet vec)"
# Nothing else compiles the !amd64 files; go vet's asmdecl checks the
# assembly's frame layout against its Go declarations on amd64 above.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/vec/

step "go test -race (par, core, service, kernel, router, sparse, precond); par and router once more on one P"
# sparse and precond: a TriSchedule is shared by every worker solving on
# its operator (precond.TestSharedStagesApplyConcurrently).
go test -race ./internal/par/... ./internal/core/... ./internal/service/... ./internal/kernel/... ./internal/router/... ./internal/sparse/... ./internal/precond/...
# A rank's receive polls before it parks; on one P the rank it waits for runs
# only if the poll yields, so every change exercises the yield. The router's
# pick reads in-flight counts that other handlers move, and on one P those
# handlers interleave differently. The kill-mid-solve test is left out there:
# on one P the backend finishes its whole solve before the client reads the
# first progress line, so there is nothing left to kill (it fails so at the
# parent of the change that added this pass, 18 runs in 20).
GOMAXPROCS=1 go test ./internal/par/...
GOMAXPROCS=1 go test -skip '^TestRouterKillMidSolveRedispatch$' ./internal/router/...

step "router stress (GOMAXPROCS=1, -race, -count=10)"
# One P under the race detector starves the backends' CPU: ten passes catch
# a supervisor that restarts a busy backend whose probes time out
# (TestRouterZeroSDCUnder64MixedClients) or a timing-dependent pick. The
# kill-mid-solve test is left out for the reason given above.
GOMAXPROCS=1 go test -race -count=10 -skip '^TestRouterKillMidSolveRedispatch$' ./internal/router/

step "newsum-bench CLI smoke (-exp checkpoint, small grid)"
# The checkpoint-codec sweep runs through the CLI path so -exp checkpoint
# cannot bit-rot: a small deterministic grid, discarded output. Its seeded
# outcomes are internal/accuracy's campaign_units.golden.
go run ./cmd/newsum-bench -exp checkpoint -n 256 >/dev/null

step "coverage gate (fault, checksum, checkpoint, accuracy, service, kernel, analysis, core, par, router >= 80%)"
# The packages that decide whether a fault is caught — and the service
# layer that promises retry-to-convergence and server-side verification —
# must themselves be thoroughly exercised; docs/testing.md records the
# baseline figures. internal/kernel joins the gate because a silent hole
# in its reduction coverage could hide a determinism break that the
# checksum comparisons would then misread as a fault. internal/analysis
# joins because the lint tier is itself a correctness gate: an analyzer
# with untested branches silently stops enforcing its invariant.
# internal/core and internal/par join with the forward-recovery tier: the
# repair/fallback branching in the solvers is now deep enough that an
# unexercised path is exactly where a fake correction would hide.
# internal/router joins with the sharded front tier: its re-dispatch and
# supervision branches are the whole-process recovery story, and an
# untested one is a client-visible outage waiting for a crash to find it.
# The output is captured first (the script sets no pipefail): a failing test
# here fails the gate before awk reads the percentages.
cover_out=$(go test -cover ./internal/fault/ ./internal/checksum/ ./internal/checkpoint/ ./internal/accuracy/ ./internal/service/ ./internal/kernel/ ./internal/analysis/ ./internal/core/ ./internal/par/ ./internal/router/) || {
	echo "$cover_out" >&2
	exit 1
}
echo "$cover_out" |
	awk '
		{ print }
		/coverage:/ {
			pct = $0
			sub(/.*coverage: /, "", pct)
			sub(/% of statements.*/, "", pct)
			if (pct + 0 < 80) { below = below "\n  " $2 " at " pct "%" }
		}
		END {
			if (below != "") {
				printf "coverage gate: below 80%%:%s\n", below > "/dev/stderr"
				exit 1
			}
		}
	'

step "non-test Go lines: per internal package, per cmd, core + par + solver, whole repo"
# ROADMAP's line targets and CHANGES.md entries quote these figures; read
# them off here instead of recounting by hand.
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs wc -l |
	awk '$2 != "total" { sub("^\\./", "", $2); repo += $1; if ($2 !~ "^(internal|cmd)/") next
			sub("/[^/]*$", "", $2); n[$2] += $1; if ($2 ~ "^internal") all += $1 }
		END { for (p in n) printf "%7d %s\n", n[p], p
			printf "%7d core + par + solver\n", n["internal/core"] + n["internal/par"] + n["internal/solver"]
			printf "%7d internal (all)\n%7d whole repo (non-test)\n", all, repo }' | sort -k2

step ""
echo "verify: OK ($SECONDS s)"
