#!/usr/bin/env bash
# Repo health gate: vet, formatting, and the full test suite under the
# race detector. Run from anywhere; exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== perfbench module: vet + tests"
# perfbench is its own module (replace nvrel => ../), so the root
# go build/test ./... above never compiles it; a solve-API change that
# breaks the benchmark would otherwise go unnoticed until it runs.
(cd perfbench && go vet ./... && go test ./...)

echo "== no-alloc benchmark guards (-benchtime=1x)"
bench_out=$(go test -run '^$' -bench 'NoAlloc' -benchmem -benchtime=1x ./...)
echo "$bench_out"
if ! echo "$bench_out" | awk '/allocs\/op/ { if ($(NF-1)+0 != 0) { print "nonzero allocs: " $0 > "/dev/stderr"; bad = 1 } } END { exit bad }'; then
    echo "no-alloc guard: a NoAlloc benchmark allocated; see lines above" >&2
    exit 1
fi

echo "== bench + solver-metrics artifacts (reps=1)"
mkdir -p artifacts
go run ./cmd/nvrel -metrics artifacts/metrics.json bench -reps 1 -o artifacts/BENCH_ci.json
# The snapshot must carry live solver counters: GS sweeps (via the
# gs-sparse probe), restamps and plan memo hits (model-cache sweeps), and
# a worker-utilization reading from the parallel pool.
for metric in linalg.gs.sweeps petri.restamp petri.plan.memo_hit parallel.pool.utilization; do
    if ! grep -q "\"$metric\":" artifacts/metrics.json; then
        echo "metrics artifact: $metric missing" >&2
        exit 1
    fi
    if grep -Eq "\"$metric\": 0,?$" artifacts/metrics.json; then
        echo "metrics artifact: $metric is zero" >&2
        exit 1
    fi
done

echo "== bench regression gate vs checked-in baseline"
# Wall time crosses machine shapes, so the CI time gate is a sanity bound
# (catches algorithmic blowups, not percent-level drift); alloc counts
# are stable across machines, so that gate is tight. Local runs on the
# baseline machine can use the default 1.25x via:
#   go run ./cmd/nvrel bench -reps 3 -o new.json && \
#   go run ./cmd/nvrel bench -compare BENCH_sweeps.json new.json
go run ./cmd/nvrel bench -compare -time-ratio 25 -alloc-ratio 1.5 \
    BENCH_sweeps.json artifacts/BENCH_ci.json | tee artifacts/bench_compare.txt

echo "== warm-start gate: iteration reduction + cold/warm agreement"
# The command exits non-zero unless the reference sweep's warm pass needs
# <= 0.6x the cold iterations and every warm distribution agrees with its
# cold counterpart to 1e-12 (see DESIGN.md section 10).
go run ./cmd/nvrel -metrics artifacts/metrics_warmstart.json \
    bench -warmstart -o artifacts/BENCH_warmstart.json
# The engine must actually have warmed: registry hits and accepted seeds.
for metric in warmstart.lookup.hit warmstart.insert linalg.seed.warm; do
    if ! grep -q "\"$metric\":" artifacts/metrics_warmstart.json; then
        echo "warmstart gate: $metric missing from metrics" >&2
        exit 1
    fi
    if grep -Eq "\"$metric\": 0,?$" artifacts/metrics_warmstart.json; then
        echo "warmstart gate: $metric is zero" >&2
        exit 1
    fi
done

echo "== serve daemon smoke test (incl. 2-peer fleet stage)"
./scripts/serve_smoke.sh
# The smoke's fleet stage writes the merged-cluster artifacts CI uploads.
for f in artifacts/fleet.json artifacts/fleet_trace.json; do
    if [[ ! -s "$f" ]]; then
        echo "serve smoke: expected fleet artifact $f missing or empty" >&2
        exit 1
    fi
done

echo "== loadgen gate: latency, cache hit rate, speedup, SLO burn"
# A repeat-heavy mix against a self-served daemon: cached answers must be
# at least 10x faster than cold solves at the median, with zero errors.
# The p99 bound is a cross-machine sanity ceiling (like -time-ratio
# above), not a percent-level SLO; the SLO gates assert the burn-rate
# math on a run that must have zero errors and nothing near 5s.
go run ./cmd/nvrel loadgen -self-serve -duration 5s -concurrency 3 \
    -mix 0.9,0.07,0.03 -max-p99 5s -max-error-rate 0 -min-hit-rate 0.5 \
    -min-p50-speedup 10 -slo-availability 0.999 -slo-p99 5s \
    -o artifacts/loadgen.json
if ! grep -q '"hit_speedup_p50"' artifacts/loadgen.json; then
    echo "loadgen gate: artifact missing hit_speedup_p50" >&2
    exit 1
fi
if ! grep -q '"slo"' artifacts/loadgen.json; then
    echo "loadgen gate: artifact missing slo block" >&2
    exit 1
fi

echo "== shadow gate: N-version self-check at rate 1.0 + audit replay"
# Every solve of a self-served burst is re-solved on an independent
# solver rung (DESIGN.md section 14): at least one comparison must be
# sampled, none may diverge, and the burst must stay inside the same p99
# ceiling as the loadgen gate above. The flight-recorder dump is then
# replayed through `nvrel audit`, whose -max-diverge-rate 0 gate exits
# non-zero on any divergence.
go run ./cmd/nvrel loadgen -self-serve -duration 3s -concurrency 2 \
    -mix 0.5,0.3,0.2 -shadow-rate 1.0 -min-shadow-sampled 1 \
    -max-shadow-diverge 0 -max-p99 5s -max-error-rate 0 \
    -flight-out artifacts/flight.json -o artifacts/shadow_loadgen.json
if ! grep -q '"sampled"' artifacts/shadow_loadgen.json; then
    echo "shadow gate: loadgen report missing shadow block" >&2
    exit 1
fi
go run ./cmd/nvrel audit -flight artifacts/flight.json \
    -max-diverge-rate 0 -o artifacts/audit.json
if ! grep -q '"diverge_rate": 0' artifacts/audit.json; then
    echo "shadow gate: audit report disagrees with its exit status" >&2
    exit 1
fi

echo "== chaos gate: fault plan over the standard sweeps"
go run ./cmd/nvrel chaos -steps 2 -o artifacts/chaos.json
# The command already exits non-zero when a fault escapes containment;
# the grep is a belt-and-braces check that the report agrees.
if ! grep -q '"silent_wrong": 0' artifacts/chaos.json; then
    echo "chaos gate: report disagrees with exit status" >&2
    exit 1
fi

echo "== chaos fleet gate: seeded transport faults + peer kill/restart"
# A 2-peer fleet with a chaos transport on one peer and a SIGKILL/restart
# of the other, driven by loadgen with -max-error-rate 0 and an
# availability SLO: faults must be absorbed (retry / breaker / degraded
# local solves), never surfaced to clients. Writes artifacts/chaos_fleet.*.
./scripts/chaos_fleet.sh
for f in artifacts/chaos_fleet.json artifacts/chaos_plan.json; do
    if [[ ! -s "$f" ]]; then
        echo "chaos fleet gate: expected artifact $f missing or empty" >&2
        exit 1
    fi
done

echo "check.sh: all green"
