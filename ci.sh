#!/usr/bin/env bash
# CI gate: formatting, lints, build, tests, and static analysis over
# every built-in model. Run from the repo root; any failure aborts.
set -euo pipefail
cd "$(dirname "$0")"

step() { echo; echo "==> $*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release

step "cargo test -q (tier-1)"
cargo test -q

# The workspace run carries these gates; they are not run a second time:
#   duet-runtime  --test interleave            interleaving stress, fixed seeds
#   duet (root)   --test kernel_pool_width     forked kernels bit-identical at width >= 2
#   rayon         --test pool_stress, width_one  fork/join stress
#   duet-analysis --test model_check_mutation  each corruption maps to its D5xx code
#   duet-analysis --test dataflow_soundness    abstract intervals contain concrete runs
#   duet-analysis --test dataflow_mutation     each seeded hazard maps to its D6xx code
#   duet (root)   --test model_check_bridge    D5xx-clean plans survive interleaving stress
step "cargo test --workspace -q"
cargo test --workspace -q

step "allocation gate (tape+arena steady state, recorrect, Duet::run budgets)"
cargo run -q --release -p duet-bench --bin duet-alloc-gate

step "kernel engine perf floor (vectorized vs seed kernels, alternating trials; one-thread GEMM vs measured FMA peak)"
cargo run -q --release -p duet-bench --bin duet-kernel-floor

step "duet-lint over all built-in models"
cargo run -q --release --bin duet-lint -- all

step "duet-lint trace over all built-in models (D3xx conformance)"
cargo run -q --release --bin duet-lint -- trace all

step "duet-lint model-check over all built-in models (D5xx proof, <1s checker budget)"
MC_OUT="$(cargo run -q --release --bin duet-lint -- \
  model-check all --deny-warnings --max-states 200000 | tee /dev/stderr)"
echo "$MC_OUT" | awk '
  /^model-check: / {
    found = 1
    for (i = 1; i <= NF; i++) if ($(i + 1) == "ms") ms = $i
    if (ms == "" || ms + 0 >= 1000) { print "FAIL: checker took " ms " ms (budget 1000)"; exit 1 }
    print "checker wall time " ms " ms - within budget."
  }
  END { if (!found) { print "FAIL: no model-check summary line"; exit 1 } }
'

step "duet-lint dataflow over all built-in models (D6xx proof, <10ms/model budget)"
DF_OUT="$(cargo run -q --release --bin duet-lint -- \
  dataflow all --deny-warnings | tee /dev/stderr)"
echo "$DF_OUT" | awk '
  /^dataflow: / {
    found = 1
    for (i = 1; i <= NF; i++) if ($(i + 1) == "ms/model,") ms = $i
    if (ms == "" || ms + 0 >= 10) { print "FAIL: worst model took " ms " ms (budget 10)"; exit 1 }
    print "worst per-model analysis time " ms " ms - within budget."
  }
  END { if (!found) { print "FAIL: no dataflow summary line"; exit 1 } }
'

step "duet-serve smoke (low-qps load, drift -> exactly one hot-swap, zero shed, bit-identity, witness)"
METRICS_OUT="$(mktemp)"
trap 'rm -f "$METRICS_OUT"' EXIT
cargo run -q --release -p duet-serve --bin duet-serve -- \
  --model wide_deep --qps 25 --duration-ms 1200 --max-batch 4 \
  --require-zero-shed --metrics-out "$METRICS_OUT"

step "prometheus exposition carries every pipeline stage"
for family in \
  duet_compile_runs_total \
  duet_profile_subgraphs_total \
  duet_sched_corrections_total \
  duet_sched_moves_accepted_total \
  duet_sched_correction_wall_us \
  duet_exec_runs_total \
  duet_tape_runs_total \
  duet_arena_checkouts_total \
  duet_serve_batches_total \
  duet_serve_shed_total \
  duet_serve_plan_swap_rejected_total \
  duet_serve_swap_stall_us \
  duet_analysis_checks_total \
  duet_analysis_diagnostics_total \
  duet_analysis_model_check_states \
  duet_analysis_dataflow_wall_us \
  duet_serve_queue_depth \
  duet_serve_batch_size_bucket \
  duet_serve_slo_breaches_total \
  duet_serve_segment_us_bucket \
  duet_insight_traces_total \
  duet_insight_torn_reads_total \
  duet_insight_dumps_total \
  duet_kernel_pool_regions_total \
  duet_kernel_pool_chunks_total \
  duet_kernel_pool_parks_total \
  duet_kernel_pool_migrations_total; do
  grep -q "^$family" "$METRICS_OUT" \
    || { echo "FAIL: /metrics family $family missing"; exit 1; }
done
echo "all metric families present."

step "flight recorder end-to-end (SLO burn -> one dump -> render/attribution/replay)"
FLIGHT_DIR="$(mktemp -d)"
INSIGHT_OUT="$(mktemp --suffix .json)"
trap 'rm -f "$METRICS_OUT" "$INSIGHT_OUT"; rm -rf "$FLIGHT_DIR"' EXIT
# A 50 us SLO no real request can meet: the first window burns, the
# flight recorder latches, and exactly one dump lands in the directory.
cargo run -q --release -p duet-serve --bin duet-serve -- \
  --model mlp --qps 200 --duration-ms 400 --no-drift \
  --slo 50 --slo-window 4 --slo-burn 2 --flight-dir "$FLIGHT_DIR"
DUMPS=("$FLIGHT_DIR"/dump-*)
[ "${#DUMPS[@]}" -eq 1 ] \
  || { echo "FAIL: expected exactly one dump, found ${#DUMPS[@]}"; exit 1; }
[ -f "${DUMPS[0]}/manifest.json" ] && [ -f "${DUMPS[0]}/traces.json" ] \
  || { echo "FAIL: dump ${DUMPS[0]} is missing its artifacts"; exit 1; }
cargo run -q --release --bin duet -- insight attribution "${DUMPS[0]}"
cargo run -q --release --bin duet -- insight render "${DUMPS[0]}" "$INSIGHT_OUT"
python3 - "$INSIGHT_OUT" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
pids = {e["pid"] for e in events}
assert pids == {1, 2}, f"expected virtual+wall process lanes, got {pids}"
assert any(e.get("ph") == "X" for e in events), "no duration slices"
print(f"insight render OK: {len(events)} events across {len(pids)} processes")
PY
cargo run -q --release --bin duet-lint -- trace --dump "${DUMPS[0]}"

step "duet tune gate (drift scenario: never worse than Algorithm 1, promoted, reproduces results/ext-autotune.json)"
TUNE_A="$(mktemp --suffix .json)"
TUNE_B="$(mktemp --suffix .json)"
TUNE_METRICS="$(mktemp)"
trap 'rm -f "$METRICS_OUT" "$TUNE_A" "$TUNE_B" "$TUNE_METRICS"' EXIT
# The CLI exits nonzero on a never-worse violation or failed promotion;
# on the zoo the drift run must also strictly beat the stale plan.
cargo run -q --release --bin duet -- tune wide_and_deep \
  --drift --json "$TUNE_A" --metrics-out "$TUNE_METRICS"
cargo run -q --release --bin duet -- tune mtdnn \
  --drift --json "$TUNE_B"
# Each fresh process must also reproduce its row of the committed results
# file (regenerate it with `duet tune all --drift --json
# results/ext-autotune.json`): a deterministic search, and a results file
# that still describes the code.
python3 - results/ext-autotune.json "$TUNE_A" "$TUNE_B" <<'PY'
import json, sys
drop = lambda r: {k: v for k, v in r.items() if k != "wall_us"}
committed = {r["model"]: drop(r) for r in json.load(open(sys.argv[1]))["runs"]}
for path in sys.argv[2:]:
    run = json.load(open(path))["runs"][0]
    assert run["promoted"], f'{run["model"]}: winning plan failed promotion'
    assert run["tuned_us"] <= run["algorithm1_us"], f'{run["model"]}: worse than Algorithm 1'
    assert run["speedup_vs_stale"] > 1.0, \
        f'{run["model"]}: no strict win over the stale plan under drift'
    assert drop(run) == committed[run["model"]], \
        f'{run["model"]}: tuning report differs from results/ext-autotune.json'
    print(f'{run["model"]}: {run["speedup_vs_stale"]:.3f}x vs stale, promoted, as committed')
PY
for family in \
  duet_tune_runs_total \
  duet_tune_candidates_total \
  duet_tune_promotions_total \
  duet_tune_oracle_wall_us \
  duet_tune_search_wall_us; do
  grep -q "^$family" "$TUNE_METRICS" \
    || { echo "FAIL: /metrics family $family missing from tune run"; exit 1; }
done
echo "all duet_tune_* metric families present."

step "merged perfetto trace (duet trace --full) is one valid JSON document"
TRACE_OUT="$(mktemp --suffix .json)"
trap 'rm -f "$METRICS_OUT" "$TRACE_OUT"' EXIT
cargo run -q --release --bin duet -- trace siamese "$TRACE_OUT" --full
python3 - "$TRACE_OUT" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
pids = {e["pid"] for e in events}
assert pids == {1, 2}, f"expected virtual+wall process lanes, got {pids}"
assert any(e.get("ph") == "X" for e in events), "no duration slices"
print(f"trace OK: {len(events)} events across {len(pids)} processes")
PY

step "telemetry overhead gate (enabled vs disabled, <3% median)"
cargo run -q --release -p duet-bench --bin duet-telemetry-overhead

echo
echo "CI gate passed."
