#!/usr/bin/env bash
# Perf-trajectory smoke run: tier-1 tests plus a <=60s subset of the hot-path
# micro-benchmarks, writing BENCH_hotpaths.json at the repository root.
#
# Every PR should leave a fresh trajectory point behind:
#
#   ./scripts/bench_smoke.sh            # quick scenario (300 nodes x 30 rounds)
#   BENCH_FULL=1 ./scripts/bench_smoke.sh   # full acceptance scenario (1000 x 100)
#   BENCH_SKIP_TESTS=1 ./scripts/bench_smoke.sh   # bench only (CI runs tests itself)
#   BENCH_OUTPUT=artifacts/bench_smoke.json ./scripts/bench_smoke.sh
#       # write elsewhere — CI uses this so a quick run never overwrites the
#       # committed full-mode BENCH_hotpaths.json (regenerate that deliberately
#       # with `python benchmarks/run_bench.py`)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [ "${BENCH_SKIP_TESTS:-0}" != "1" ]; then
    echo "== tier-1 tests =="
    python -m pytest tests/ -x -q
fi

echo
echo "== hot-path benchmarks =="
ARGS=()
if [ -n "${BENCH_OUTPUT:-}" ]; then
    ARGS+=(--output "$BENCH_OUTPUT")
fi
if [ "${BENCH_FULL:-0}" = "1" ]; then
    python benchmarks/run_bench.py "${ARGS[@]}"
else
    python benchmarks/run_bench.py --quick "${ARGS[@]}"
fi

echo
echo "== determinism-lint trajectory =="
# The lint gate runs on every CI invocation, so its wall clock is a perf
# trajectory of its own: one full-repo strict pass, injected into the bench
# JSON next to the simulator hot paths so regressions show up in the same
# artifact.
python - "${BENCH_OUTPUT:-BENCH_hotpaths.json}" <<'PYEOF'
import json, re, subprocess, sys, time
from pathlib import Path

out = Path(sys.argv[1])
cmd = [sys.executable, "-m", "repro", "lint", "src", "--strict"]
start = time.perf_counter()
proc = subprocess.run(cmd, capture_output=True, text=True)
lint_s = time.perf_counter() - start
if proc.returncode != 0:
    sys.stderr.write(proc.stdout + proc.stderr)
    raise SystemExit("strict lint failed during the bench run")
files = int(re.search(r"in (\d+) file\(s\)", proc.stdout).group(1))
report = json.loads(out.read_text())
report["lint"] = {
    "files": files,
    "lint_s": round(lint_s, 3),
    "lint_files_per_s": round(files / lint_s, 1),
}
out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
print(f"lint trajectory: {files} files in {lint_s:.2f}s -> updated {out}")
PYEOF
