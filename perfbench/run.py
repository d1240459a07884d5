"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload object-croupier --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally replays
the same inputs under the layer tracer and prints the per-layer metrics instead.
Before the result line the run prints one ``{"host": ...}`` line naming the host
and the code under test, and it writes the same record, with run details, to
``.perfbench/`` in the checkout. A run whose output fails its check prints
``"correct": false`` with no metrics and exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def git_revision(root: Path):
    """The checked-out commit, read from ``.git`` without running git; ``None``
    outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's source files: names the code under test even
    where there is no git history."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_stamp(workload: str, seed: int, nproc: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(SRC),
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (needs the paths above)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stamp = host_stamp(args.workload, args.seed, workloads.nproc())
    print(json.dumps({"host": stamp}, sort_keys=True), flush=True)

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), out_dir)
    except workloads.CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Exception:  # a crash in the program counts as a failed run too
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    record = {"host": stamp, "trace": args.trace, "details": outcome.details,
              "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"details": outcome.details}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": outcome.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
