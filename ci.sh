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
#   duet (root)   --test model_check_bridge    D5xx-clean plans survive interleaving stress in lane order
step "cargo test --workspace -q"
cargo test --workspace -q

step "allocation gate (tape+arena steady state, recorrect, Duet::run budgets)"
cargo run -q --release -p duet-bench --bin duet-alloc-gate

step "kernel engine perf floor (engine vs reference oracle, alternating trials; one-thread GEMM vs measured FMA peak)"
cargo run -q --release -p duet-bench --bin duet-kernel-floor

step "duet lint over all built-in models"
cargo run -q --release --bin duet -- lint all

step "duet trace over all built-in models (D3xx conformance; executor and replay agree exactly)"
cargo run -q --release --bin duet -- trace all --deny-warnings

step "duet model-check over all built-in models (D5xx proof, <1s checker budget)"
# awk echoes every line itself: a `tee /dev/stderr` reopens the log when
# stderr is redirected to a file, and truncates it or overwrites the copy.
cargo run -q --release --bin duet -- model-check all --deny-warnings | awk '
  { print }
  /^model-check: / {
    found = 1
    for (i = 1; i <= NF; i++) if ($(i + 1) == "ms") ms = $i
    if (ms == "" || ms + 0 >= 1000) { print "FAIL: checker took " ms " ms (budget 1000)"; exit 1 }
    print "checker wall time " ms " ms - within budget."
  }
  END { if (!found) { print "FAIL: no model-check summary line"; exit 1 } }
'

step "duet dataflow over all built-in models (D6xx proof, <10ms/model budget)"
cargo run -q --release --bin duet -- dataflow all --deny-warnings | awk '
  { print }
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
# At 25 qps arrivals are ~40 ms apart, so the batcher should almost
# never linger: the median request's linger segment is under 1 ms.
python3 - "$METRICS_OUT" <<'PY'
import re, sys
pattern = r'duet_serve_segment_us_bucket\{segment="linger",le="([^"]+)"\} (\d+)'
buckets = [(float(m[1]), int(m[2])) for m in map(re.compile(pattern).match, open(sys.argv[1])) if m]
assert buckets, "no linger segment histogram in the metrics dump"
median_le = next(le for le, n in buckets if 2 * n >= buckets[-1][1])
assert median_le < 1000, f"median linger bucket is le={median_le} us, not under 1 ms"
print(f"median linger bucket le={median_le:.0f} us - under 1 ms.")
PY

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
# The text format allows one # HELP/# TYPE pair per family: a family
# split in two (exemplars and all, after traffic) repeats its # TYPE.
REPEATED="$(awk '/^# TYPE/ && seen[$3]++ { print $3 }' "$METRICS_OUT")"
[ -z "$REPEATED" ] \
  || { echo "FAIL: # TYPE repeated for: $REPEATED"; exit 1; }
echo "every family is one group."

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
cargo run -q --release --bin duet -- trace --dump "${DUMPS[0]}" --deny-warnings

step "duet tune gate (drift scenario: never worse than Algorithm 1, promoted, reproduces results/ext-autotune.json)"
TUNE_A="$(mktemp --suffix .json)"
TUNE_B="$(mktemp --suffix .json)"
TUNE_C="$(mktemp --suffix .json)"
TUNE_METRICS="$(mktemp)"
trap 'rm -f "$METRICS_OUT" "$TUNE_A" "$TUNE_B" "$TUNE_C" "$TUNE_METRICS"' EXIT
# The CLI exits nonzero on a never-worse violation or failed promotion;
# on the zoo the drift run must also strictly beat the stale plan.
cargo run -q --release --bin duet -- tune wide_and_deep \
  --drift --out "$TUNE_A" --metrics-out "$TUNE_METRICS"
cargo run -q --release --bin duet -- tune mtdnn \
  --drift --out "$TUNE_B"
# mobilenet's depthwise→BN→ReLU chains are priced as the one instruction
# each runs as; its row holds that pricing.
cargo run -q --release --bin duet -- tune mobilenet \
  --drift --out "$TUNE_C"
# Each fresh process must also reproduce its row of the committed results
# file (regenerate it with `duet tune all --drift --out
# results/ext-autotune.json`): a deterministic search, and a results file
# that still describes the code.
python3 - results/ext-autotune.json "$TUNE_A" "$TUNE_B" "$TUNE_C" <<'PY'
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

step "paper results reproduce (virtual-time experiments regenerated, equal to results/ as parsed JSON)"
EXP_DIR="$(mktemp -d)"
trap 'rm -f "$METRICS_OUT" "$TUNE_A" "$TUNE_B" "$TUNE_C" "$TUNE_METRICS"; rm -rf "$EXP_DIR"' EXIT
# duet-experiments writes results/<id>.json under its working directory.
# Not compared: the wall-clock experiments (ext-kernel-speed,
# ext-memory-plan, ext-serving-real), which measure the host.
COMPARED=(table1 table2 table3 fig4 fig5 fig11 fig12 fig13 fig14 fig15 fig16
  fig17 ext-granularity ext-concurrency ext-flops-proxy ext-systems ext-nested
  ext-serving)
ROOT="$PWD"
# Built here, at the repo root, where cargo reads .cargo/config.toml: a
# build started from $EXP_DIR would replace the shared binary with one
# compiled without target-cpu=native.
cargo build -q --release -p duet-bench --bin duet-experiments
(cd "$EXP_DIR" && "$ROOT/target/release/duet-experiments" "${COMPARED[@]}" >/dev/null)
python3 - "$ROOT/results" "$EXP_DIR/results" "${COMPARED[@]}" <<'PY'
import json, sys
committed, fresh, *ids = sys.argv[1:]
load = lambda d, i: json.load(open(f"{d}/{i}.json"))
differ = [i for i in ids if load(committed, i) != load(fresh, i)]
assert not differ, f"regenerated results differ from results/: {' '.join(differ)}"
print(f"{len(ids)} results files reproduce exactly")
PY
rm -rf "$EXP_DIR"

step "merged perfetto trace (duet trace --full) is one valid JSON document"
TRACE_OUT="$(mktemp --suffix .json)"
trap 'rm -f "$METRICS_OUT" "$TRACE_OUT"' EXIT
cargo run -q --release --bin duet -- trace siamese --out "$TRACE_OUT" --full
python3 - "$TRACE_OUT" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
pids = {e["pid"] for e in events}
assert pids == {1, 2}, f"expected virtual+wall process lanes, got {pids}"
assert any(e.get("ph") == "X" for e in events), "no duration slices"
# The run's spans reach the telemetry lane: one `subgraph` span on each
# witness slice (same virtual start and duration) and one `run` span.
slices = sorted((e["ts"], e["dur"]) for e in events
                if e["pid"] == 1 and e["tid"] in (1, 2) and e.get("ph") == "X")
lane = [e for e in events if e["pid"] == 1 and e["tid"] == 4 and e.get("ph") != "M"]
subgraphs = sorted((e["ts"], e["dur"]) for e in lane if e["name"] == "subgraph")
assert subgraphs == slices, f"subgraph spans {subgraphs} != witness slices {slices}"
runs = [e for e in lane if e["name"] == "run"]
assert len(runs) == 1, f"expected one run span on the telemetry lane, got {len(runs)}"
print(f"trace OK: {len(events)} events across {len(pids)} processes, "
      f"{len(subgraphs)} subgraph spans on {len(slices)} witness slices")
PY

step "witness-only trace (duet trace --out) is one process with one slice per dispatched subgraph"
WTRACE_OUT="$(mktemp --suffix .json)"
WPLAN_OUT="$(mktemp --suffix .json)"
trap 'rm -f "$METRICS_OUT" "$TRACE_OUT" "$WTRACE_OUT" "$WPLAN_OUT"' EXIT
cargo run -q --release --bin duet -- trace wide_and_deep --out "$WTRACE_OUT"
cargo run -q --release --bin duet -- export-plan wide_and_deep "$WPLAN_OUT" >/dev/null
python3 - "$WTRACE_OUT" "$WPLAN_OUT" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
plan = json.load(open(sys.argv[2]))
# A fallback plan runs the whole graph as one subgraph.
dispatched = 1 if plan["fallback"] is not None else len(plan["subgraphs"])
pids = {e["pid"] for e in events}
assert pids == {1}, f"expected the virtual-clock process alone, got {pids}"
sgs = sorted(e["args"]["sg"] for e in events if e.get("ph") == "X")
assert sgs == list(range(dispatched)), \
    f"expected one X slice per dispatched subgraph (0..{dispatched}), got {sgs}"
print(f"witness trace OK: {len(events)} events, {len(sgs)} slices for {dispatched} subgraphs")
PY

step "plan replay (export-plan, report --plan on its model, refused as stale on another)"
PLAN_OUT="$(mktemp --suffix .json)"
trap 'rm -f "$METRICS_OUT" "$TRACE_OUT" "$WTRACE_OUT" "$WPLAN_OUT" "$PLAN_OUT"' EXIT
cargo run -q --release --bin duet -- export-plan siamese "$PLAN_OUT"
cargo run -q --release --bin duet -- report siamese --plan "$PLAN_OUT" >/dev/null
# A plan made for another graph is refused with exactly one error: the
# stale fingerprint (D206), not one per node of the other graph.
STATUS=0
STALE="$(cargo run -q --release --bin duet -- report mtdnn --plan "$PLAN_OUT" 2>&1)" || STATUS=$?
[ "$STATUS" -eq 1 ] \
  || { echo "FAIL: report --plan with a stale plan exited $STATUS, not 1"; exit 1; }
ERRORS="$(grep 'error\[' <<<"$STALE" || true)"
[ "$(grep -c . <<<"$ERRORS")" -eq 1 ] && grep -q 'error\[D206\]' <<<"$ERRORS" \
  || { echo "FAIL: expected exactly one error, D206, in:"; echo "$STALE"; exit 1; }
echo "stale plan refused with one error: D206."

step "telemetry overhead gate (enabled vs disabled, <3% median)"
cargo run -q --release -p duet-bench --bin duet-telemetry-overhead

echo
echo "CI gate passed."
