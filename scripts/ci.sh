#!/usr/bin/env bash
# Local mirror of the CI gate (.github/workflows/ci.yml): byte-compile the package,
# run the tier-1 tests, the <=60s bench smoke, a mini experiment-matrix whose
# aggregate must be byte-identical between a 4-worker and a 1-worker run AND to the
# committed baseline aggregate, a workload-timeline mini-matrix with the same
# 4-vs-1 parity, a `--dry-run` cell-key stability diff, a chaos smoke (injected
# worker crashes/hangs/corruption must recover to the identical bytes), a
# kill-and-resume smoke (truncated journal + --resume must rebuild the identical
# bytes), and a cross-PR regression diff against the committed baseline.
#
#   ./scripts/ci.sh
#
# Runs from any checkout without installing the package (uses `python -m repro`).
#
# The baseline (artifacts/baseline/matrix_aggregate.json) is committed; it is the
# exact aggregate the mini-matrix produced when it was last deliberately changed.
# Regenerate it ONLY for an intentional semantic change, with:
#
#   PYTHONPATH=src python -m repro matrix \
#       --scenarios static --protocols croupier,cyclon --sizes 60 \
#       --seeds 2 --rounds 10 --latency constant \
#       --nat-mixtures none,paper --upnp-fractions 0,0.2 \
#       --workers 1 --out artifacts/baseline
#   git add -f artifacts/baseline/matrix_aggregate.json
#
# The committed cell list (artifacts/baseline/matrix_cells.txt) pins the legacy and
# timeline cell keys, derived seeds and timeline digests; regenerate it together
# with the baseline whenever a key change is intentional:
#
#   { PYTHONPATH=src python -m repro matrix \
#         --scenarios static --protocols croupier,cyclon --sizes 60 \
#         --seeds 2 --rounds 10 --latency constant \
#         --nat-mixtures none,paper --upnp-fractions 0,0.2 --dry-run;
#     PYTHONPATH=src python -m repro matrix \
#         --scenarios static --protocols croupier --sizes 40 \
#         --seeds 2 --rounds 70 --latency constant \
#         --timelines paper-churn --dry-run; } 2>/dev/null \
#     > artifacts/baseline/matrix_cells.txt
#   git add -f artifacts/baseline/matrix_cells.txt
#
# The columnar golden (artifacts/baseline/columnar_aggregate.json) pins the
# columnar engine's results (and byte-parity with the object cells of the same
# grid). Regenerate it ONLY for an intentional engine-semantics change, with:
#
#   PYTHONPATH=src python -m repro matrix \
#       --scenarios static --protocols croupier --sizes 60 \
#       --seeds 2 --rounds 40 --latency constant \
#       --engines object,columnar --workers 1 --out artifacts/ci-columnar-w1
#   cp artifacts/ci-columnar-w1/matrix_aggregate.json \
#      artifacts/baseline/columnar_aggregate.json
#   git add -f artifacts/baseline/columnar_aggregate.json
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src

echo
echo "== determinism lint (strict, 30s budget) =="
# AST-based determinism & invariant gate (docs/determinism_lint.md). Runs in
# seconds and before tier-1 so a seeding/ordering violation fails fast with a
# file:line finding instead of a byte-diff three stages later. Strict mode also
# fails on stale suppressions, stale allowlist entries and non-canonical
# allowlist paths. The budget below is a hard wall-clock gate on the full-repo
# strict run — busting it means the lint pass itself regressed, which would
# erode its run-before-everything value.
LINT_START=$(date +%s)
python -m repro lint src --strict
LINT_ELAPSED=$(( $(date +%s) - LINT_START ))
echo "lint wall clock: ${LINT_ELAPSED}s (budget 30s)"
if [ "$LINT_ELAPSED" -gt 30 ]; then
    echo "ERROR: strict lint exceeded its 30s full-repo budget" >&2
    exit 1
fi

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== docs check (links, anchors, CLI flags) =="
# README.md + docs/*.md: every relative link and #anchor must resolve, and
# every --flag on a `repro ...` invocation in a fenced block must exist in the
# argparse tree (scripts/check_docs.py). No network access — external links
# are not fetched.
python scripts/check_docs.py

echo
echo "== bench smoke (perf trajectory) =="
# The smoke run is quick-mode; write it under artifacts/ so it never overwrites
# the committed full-mode BENCH_hotpaths.json.
BENCH_SKIP_TESTS=1 BENCH_OUTPUT=artifacts/bench_smoke.json ./scripts/bench_smoke.sh

echo
echo "== mini-matrix smoke: 4-vs-1 worker parity (incl. NAT-mixture + UPnP cells) =="
MATRIX_ARGS=(--scenarios static --protocols croupier,cyclon --sizes 60
             --seeds 2 --rounds 10 --latency constant
             --nat-mixtures none,paper --upnp-fractions 0,0.2)
python -m repro matrix "${MATRIX_ARGS[@]}" --workers 4 --out artifacts/ci-matrix-w4
python -m repro matrix "${MATRIX_ARGS[@]}" --workers 1 --out artifacts/ci-matrix-w1
cmp artifacts/ci-matrix-w4/matrix_aggregate.json \
    artifacts/ci-matrix-w1/matrix_aggregate.json
echo "parity OK: 4-worker aggregate is byte-identical to the sequential run"

echo
echo "== timeline mini-matrix: paper-churn preset, 4-vs-1 worker parity =="
TIMELINE_ARGS=(--scenarios static --protocols croupier --sizes 40
               --seeds 2 --rounds 70 --latency constant
               --timelines paper-churn)
python -m repro matrix "${TIMELINE_ARGS[@]}" --workers 4 --out artifacts/ci-timeline-w4
python -m repro matrix "${TIMELINE_ARGS[@]}" --workers 1 --out artifacts/ci-timeline-w1
cmp artifacts/ci-timeline-w4/matrix_aggregate.json \
    artifacts/ci-timeline-w1/matrix_aggregate.json
echo "parity OK: timeline cells are byte-identical across worker counts"

echo
echo "== columnar engine: equivalence vs object backend + golden byte-parity =="
# The same small grid on both engines. The columnar aggregate must be
# byte-identical across worker counts and to the committed golden; the
# estimator means of the two engines must agree within tolerance (the engines are statistically
# equivalent, not bit-identical — the columnar model is round-synchronous).
COLUMNAR_ARGS=(--scenarios static --protocols croupier --sizes 60
               --seeds 2 --rounds 40 --latency constant
               --engines object,columnar)
python -m repro matrix "${COLUMNAR_ARGS[@]}" --workers 4 --out artifacts/ci-columnar-w4
python -m repro matrix "${COLUMNAR_ARGS[@]}" --workers 1 --out artifacts/ci-columnar-w1
cmp artifacts/ci-columnar-w4/matrix_aggregate.json \
    artifacts/ci-columnar-w1/matrix_aggregate.json
echo "parity OK: columnar cells are byte-identical across worker counts"
cmp artifacts/baseline/columnar_aggregate.json \
    artifacts/ci-columnar-w1/matrix_aggregate.json
echo "golden OK: columnar aggregate matches the committed golden byte for byte"
python scripts/check_columnar_equivalence.py \
    artifacts/ci-columnar-w1/matrix_aggregate.json

echo
echo "== columnar scale smoke: one 10^5-node cell inside the wall-clock budget =="
# A single 100k-node Croupier cell through the full matrix stack (scale kind,
# engine-native streamed metrics). The 300s budget is ~8x the measured wall
# time on the CI container class; busting it is a perf regression, not noise.
timeout 300 python -m repro matrix --scenarios scale --protocols croupier \
    --engines columnar --sizes 100000 --seeds 1 --rounds 5 --latency constant \
    --workers 1 --heartbeat 0 --out artifacts/ci-scale
python - <<'PYEOF'
import json
groups = json.load(open("artifacts/ci-scale/matrix_aggregate.json"))["groups"]
[(name, metrics)] = groups.items()
mean = metrics["est_mean"]["mean"]
measured = metrics["est_nodes_measured"]["mean"]
assert measured == 100000.0, f"expected 100000 measured nodes, got {measured}"
assert abs(mean - 0.2) < 0.05, f"estimate off at scale: {mean}"
print(f"scale OK: {name}\n  est_mean={mean:.4f} over {measured:.0f} nodes")
PYEOF

echo
echo "== cell-key stability: dry-run vs committed cell list =="
# Legacy cell keys, derived seeds and timeline digests must never drift silently —
# a drift re-seeds every archived cell. Regeneration recipe: see the header.
{ python -m repro matrix "${MATRIX_ARGS[@]}" --dry-run;
  python -m repro matrix "${TIMELINE_ARGS[@]}" --dry-run; } 2>/dev/null \
    | diff - artifacts/baseline/matrix_cells.txt
echo "cell keys OK: keys, seeds and timeline digests match the committed list"

echo
echo "== chaos smoke: injected crashes/hangs/corruption, byte-parity with baseline =="
# Every cell suffers at most one seed-derived fault and is retried on a fresh
# worker; the recovered aggregate must be byte-identical to the committed
# baseline — fault tolerance may never change results, only survive faults.
python -m repro matrix "${MATRIX_ARGS[@]}" --workers 2 \
    --chaos 'seed=7,crash=0.3,hang=0.1,corrupt=0.3' --cell-timeout 20 \
    --heartbeat 0 --out artifacts/ci-matrix-chaos
cmp artifacts/baseline/matrix_aggregate.json \
    artifacts/ci-matrix-chaos/matrix_aggregate.json
echo "chaos OK: aggregate recovered byte-identical under injected faults"

echo
echo "== resume smoke: truncated journal --resume, byte-parity with baseline =="
# Simulate a mid-run kill: keep the journal header plus the first five cell
# records (the sixth truncated mid-write), resume in place, and require the
# rebuilt aggregate to match the committed baseline byte for byte.
JOURNAL=artifacts/ci-matrix-w1/matrix_journal.jsonl
{ head -n 6 "$JOURNAL"; tail -n +7 "$JOURNAL" | head -c 25; } \
    > artifacts/ci-matrix-resume.jsonl
python -m repro matrix "${MATRIX_ARGS[@]}" --workers 2 \
    --resume artifacts/ci-matrix-resume.jsonl \
    --heartbeat 0 --out artifacts/ci-matrix-resumed
cmp artifacts/baseline/matrix_aggregate.json \
    artifacts/ci-matrix-resumed/matrix_aggregate.json
echo "resume OK: killed-then-resumed aggregate is byte-identical to the baseline"

echo
echo "== baseline gate: cross-PR diff against the committed aggregate =="
# The mini-matrix is a pure function of its spec, so the aggregate must be
# byte-identical to the committed baseline...
cmp artifacts/baseline/matrix_aggregate.json \
    artifacts/ci-matrix-w1/matrix_aggregate.json
echo "baseline bytes OK: aggregate is byte-identical to the committed baseline"
# ...and the semantic gate (group means, 5% tolerance; histogram shapes, KS
# distance 0.1) keeps reporting what a deliberate regeneration would change.
python -m repro report --diff artifacts/baseline/matrix_aggregate.json \
                              artifacts/ci-matrix-w1/matrix_aggregate.json
echo "baseline gate OK: no regressions vs artifacts/baseline/matrix_aggregate.json"

echo
echo "CI gate passed."
