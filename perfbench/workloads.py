"""The benchmark's three workloads: how each drives the program, checks it, and is timed.

Every run first makes an untraced run, which yields the end-to-end metrics.
With tracing on, the same inputs are then replayed under the tracer, and that
replay yields the per-layer metrics; its outputs must equal the untraced run's.
Timings are taken in refs as well as in seconds (see ``refclock``).
See README.md in this directory for why each workload is in the set.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import layers
import refclock
from spans import Tracer, percentile

END_TO_END = {
    "setup_s": "s",
    "node_rounds_per_ref": "1/ref",
    "round_refs_p50": "ref",
    "cells_per_kref": "1/kref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in layers.LAYERS},
    "simulator.kernel.events": "count",
    "simulator.network.packets_sent": "count",
    "simulator.network.delivered_ratio": "ratio",
    "simulator.network.drops": "count",
    "membership.view.calls": "count",
    "core.croupier.shuffle_completion": "ratio",
    "core.estimator.calls": "count",
    "core.estimator.error": "ratio",
    "nat.calls": "count",
    "nat.filtered_ratio": "ratio",
    "workload.nodes_replaced": "count",
    "columnar.waves_per_round": "count",
    "columnar.wave_rows_p50": "rows",
    "columnar.small_wave_share": "ratio",
    "columnar.rows_per_live": "ratio",
    "experiments.runner.busy_share": "ratio",
    "experiments.runner.idle_s": "s",
    "experiments.runner.tail_idle_s": "s",
    "experiments.runner.attempts": "count",
    "experiments.runner.result_bytes": "B",
    "experiments.runner.journal_bytes": "B",
    **{f"experiments.cell_s.{p}": "s" for p in ("croupier", "cyclon", "gozar", "nylon")},
    "trace.overhead": "ratio",
    "trace.window_s": "s",
}


class CheckFailed(Exception):
    """The program's output failed the workload's correctness check."""


@dataclass
class Outcome:
    attempted: int
    metrics: Dict[str, float]
    details: Dict[str, object]


def derive_seed(workload: str, seed: int) -> int:
    """The program seed for one benchmark seed: same inputs for the same seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timed_setups(build: Callable[[], object], reps: int) -> Tuple[float, float, object]:
    """Build ``reps`` times; returns the median wall seconds and the median refs
    of a build, and the last build."""
    times, samples, built = [], [refclock.sample()], None
    for _ in range(reps):
        built = None  # free the previous build before making the next
        gc.collect()
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
        samples.append(refclock.sample())
    return (statistics.median(times), statistics.median(refclock.costs(times, samples)),
            built)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def layer_metrics(tracer: Tracer, counts: layers.EdgeCounts, window_s: float,
                  overhead: float) -> Dict[str, float]:
    """The per-layer metrics every traced run shares; workloads add their own."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for layer, seconds in tracer.self_seconds().items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["simulator.kernel.events"] = counts.events
    metrics["simulator.network.packets_sent"] = counts.packets_sent
    metrics["simulator.network.delivered_ratio"] = (
        counts.packets_delivered / counts.packets_sent if counts.packets_sent else 0.0
    )
    metrics["simulator.network.drops"] = counts.drops
    metrics["membership.view.calls"] = tracer.calls_of("membership.view")
    metrics["core.estimator.calls"] = tracer.calls_of("core.estimator")
    metrics["nat.calls"] = tracer.calls_of("nat")
    metrics["nat.filtered_ratio"] = (
        counts.nat_filtered / counts.nat_inbound if counts.nat_inbound else 0.0
    )
    metrics["workload.nodes_replaced"] = counts.nodes_replaced
    metrics["trace.window_s"] = window_s
    metrics["trace.overhead"] = overhead
    return metrics


def shuffle_completion(stats: List[object]) -> float:
    initiated = sum(s.shuffles_initiated for s in stats)
    received = sum(s.shuffle_responses_received for s in stats)
    return received / initiated if initiated else 0.0


def run_traced(out_dir: Path, name: str, body: Callable[[Tracer, layers.EdgeCounts], object]):
    """Install the layer wrappers, run ``body``, restore them, and write the spans."""
    tracer = Tracer(layers.LAYERS)
    counts = layers.EdgeCounts()
    with tracer:
        layers.install(tracer, counts)
        result = body(tracer, counts)
    tracer.dump(out_dir / f"{name}.spans.gz")
    return tracer, counts, result


@dataclass(frozen=True)
class RoundWorkload:
    """A scenario driven round by round: how to build, step, check and trace it."""

    name: str
    build: Callable[[int], object]
    setups: int
    warmup_rounds: int
    step: Callable[[object], None]
    live: int
    #: The estimate is read after this timed round in every run, however many
    #: rounds the time allows, so a faster program does not also read as a more
    #: accurate one.
    probe_round: int
    probe: Callable[[object], Tuple[float, int]]
    #: Outputs the traced replay must reproduce exactly.
    outputs: Callable[[object], Dict[str, object]]
    #: Rounds of the workload's acceptance cell, for ``cells_per_kref``.
    cell_rounds: int
    layer_extras: Callable[[object, layers.EdgeCounts], Dict[str, float]]

    def __call__(self, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
        program_seed = derive_seed(self.name, seed)
        setup_wall_s, setup_refs, scenario = timed_setups(
            lambda: self.build(program_seed), self.setups)
        times, samples, ((error, measured), rss_mb) = self._drive(scenario, seconds)
        outputs = self.outputs(scenario)
        costs = refclock.costs(times, samples)
        window, cost = sum(times), sum(costs)
        details = {"program_seed": program_seed, "rounds": len(times),
                   "estimate_error": error, "nodes_measured": measured, **outputs,
                   "setup_wall_s": setup_wall_s,
                   "node_rounds_per_s": self.live * len(times) / window,
                   "round_ms_p50": 1000.0 * percentile(times, 0.5),
                   "ref_ms_p50": 1000.0 * percentile(samples, 0.5)}
        metrics = {
            "setup_s": setup_refs / refclock.REFS_PER_SECOND,
            "node_rounds_per_ref": self.live * len(costs) / cost,
            "round_refs_p50": percentile(costs, 0.5),
            # The acceptance cell projected from this run: set-up plus
            # cell_rounds rounds at the measured mean round cost.
            "cells_per_kref": 1000.0 / (setup_refs + self.cell_rounds * cost / len(costs)),
            # Read at the probe round, so that it covers the same work however
            # many rounds the time allows (RSS grows as rounds accumulate state).
            "peak_rss_mb": rss_mb,
        }
        if not trace:
            return Outcome(len(times), metrics, details)
        del scenario
        gc.collect()

        def body(tracer, counts):
            replay = self.build(program_seed)
            return self._drive(replay, seconds, tracer, len(times))[:2], replay

        tracer, counts, ((traced_times, traced_samples), replay) = run_traced(
            out_dir, self.name, body)
        traced_outputs = self.outputs(replay)
        check(traced_outputs == outputs,
              f"traced run diverged: {traced_outputs} != {outputs}")
        traced_cost = sum(refclock.costs(traced_times, traced_samples))
        per_layer = layer_metrics(tracer, counts, sum(traced_times), traced_cost / cost - 1.0)
        per_layer["core.estimator.error"] = error
        per_layer.update(self.layer_extras(replay, counts))
        return Outcome(len(times), per_layer, details)

    def _drive(self, scenario, seconds: float, tracer: Optional[Tracer] = None,
               rounds: Optional[int] = None):
        """Warm up, then time one step per round until ``seconds`` of round time
        have passed and the probe round is reached, or for exactly ``rounds``
        rounds when replaying under ``tracer``. Returns the round times, the
        reference samples taken before the first round and after each one, and,
        from the probe round, the probe's result with the peak RSS so far; the
        probe runs untimed and untraced."""
        if self.warmup_rounds:
            scenario.run_rounds(self.warmup_rounds)
        times: List[float] = []
        samples = [refclock.sample()]
        probed = None
        while (len(times) < rounds if rounds is not None
               else len(times) < self.probe_round or sum(times) < seconds):
            if tracer is not None:
                tracer.active = True
            started = time.perf_counter()
            self.step(scenario)
            times.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.active = False
            samples.append(refclock.sample())
            if len(times) == self.probe_round:
                probed = self.probe(scenario), peak_rss_mb()
        check(scenario.live_count() == self.live, f"live nodes {scenario.live_count()}")
        return times, samples, probed


# ---------------------------------------------------------------------- object-croupier

OBJ_PUBLIC, OBJ_PRIVATE = 200, 800
#: Observed errors at round 20 span 0.02-0.06 over seeds; an estimator that
#: has stopped working sits near |0.5 - 0.2| or at no estimate at all.
OBJ_ERROR_TOLERANCE = 0.08


def _object_scenario(seed: int):
    from repro.workload.scenario import ScenarioConfig, create_scenario

    scenario = create_scenario(ScenarioConfig(protocol="croupier", seed=seed))
    scenario.populate(n_public=OBJ_PUBLIC, n_private=OBJ_PRIVATE)
    return scenario


def _object_error(scenario) -> Tuple[float, int]:
    from repro.metrics.probes import collect_ratio_estimates

    estimates = [e for e in collect_ratio_estimates(scenario) if e is not None]
    truth = scenario.true_ratio()
    check(len(estimates) >= 0.9 * scenario.live_count(),
          f"only {len(estimates)} of {scenario.live_count()} nodes have an estimate")
    error = sum(abs(e - truth) for e in estimates) / len(estimates)
    check(error <= OBJ_ERROR_TOLERANCE,
          f"estimate error {error:.4f} above tolerance {OBJ_ERROR_TOLERANCE}")
    return error, len(estimates)


object_croupier = RoundWorkload(
    name="object-croupier",
    build=_object_scenario,
    setups=15,
    warmup_rounds=0,
    step=lambda scenario: scenario.run_rounds(1),
    live=OBJ_PUBLIC + OBJ_PRIVATE,
    probe_round=20,
    probe=_object_error,
    outputs=lambda scenario: {"events_executed": scenario.sim.events_executed,
                              "packets_sent": scenario.network.packets_sent},
    cell_rounds=100,
    layer_extras=lambda scenario, counts: {
        "core.croupier.shuffle_completion": shuffle_completion(
            [handle.pss.stats for handle in scenario.live_handles()]),
    },
)


# ---------------------------------------------------------------------- columnar-churn

COL_NODES = 100_000
#: Errors five churn rounds after a two-round warm-up sit near 0.05 on every seed.
COL_ERROR_TOLERANCE = 0.1


def _columnar_scenario(seed: int):
    from repro.workload.scenario import ScenarioConfig, create_scenario

    scenario = create_scenario(ScenarioConfig(
        protocol="croupier", seed=seed, latency="constant", engine="columnar"))
    check(scenario.engine.use_numpy, "the columnar engine runs without numpy")
    n_public = COL_NODES // 5
    scenario.populate(n_public=n_public, n_private=COL_NODES - n_public)
    return scenario


def _columnar_step(scenario) -> None:
    scenario.churn_step(0.01)
    scenario.run_rounds(1)


def _columnar_error(scenario) -> Tuple[float, int]:
    measured, _mean, error, _max = scenario.engine.estimate_stats(scenario.true_ratio())
    check(measured >= 0.9 * COL_NODES, f"only {measured} nodes have an estimate")
    check(error <= COL_ERROR_TOLERANCE,
          f"estimate error {error:.4f} above tolerance {COL_ERROR_TOLERANCE}")
    return error, measured


def _wave_metrics(scenario, counts: layers.EdgeCounts) -> Dict[str, float]:
    waves = counts.wave_rows
    small = sum(1 for rows in waves if rows < layers.SMALL_WAVE_ROWS)
    return {
        "columnar.waves_per_round": len(waves) / counts.shuffle_passes,
        "columnar.wave_rows_p50": percentile(waves, 0.5),
        "columnar.small_wave_share": small / len(waves),
        "columnar.rows_per_live": scenario.engine.rows / scenario.live_count(),
    }


columnar_churn = RoundWorkload(
    name="columnar-churn",
    build=_columnar_scenario,
    setups=7,
    warmup_rounds=2,
    step=_columnar_step,
    live=COL_NODES,
    probe_round=5,
    probe=_columnar_error,
    outputs=lambda scenario: {"fingerprint": scenario.engine.fingerprint(),
                              "rows": scenario.engine.rows},
    cell_rounds=70,
    layer_extras=_wave_metrics,
)


# ---------------------------------------------------------------------- matrix-mix

MATRIX_PROTOCOLS = ("croupier", "cyclon", "gozar", "nylon")
MATRIX_SEEDS = 2
MATRIX_ROUNDS = 20
MATRIX_SIZE = 200
MATRIX_SETUPS = 15
#: Croupier cells end 20 rounds in with errors of 0.01-0.04.
MATRIX_ERROR_TOLERANCE = 0.08


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _matrix_spec(root_seed: int):
    from repro.experiments.matrix import MatrixSpec

    return MatrixSpec(
        scenarios=("static", "churn"), protocols=MATRIX_PROTOCOLS, sizes=(MATRIX_SIZE,),
        seeds=MATRIX_SEEDS, rounds=MATRIX_ROUNDS, nat_mixtures=("paper",),
        root_seed=root_seed,
    )


def _matrix_setup(spec) -> None:
    """What cells build before their first round: the spec's cell list and the
    populated 200-node scenario of every static cell (a churn cell builds the
    same population and installs its churn timeline on top)."""
    from repro.experiments.matrix import CellContext, derive_cell_seed

    for cell in spec.validate():
        if cell.scenario == "static":
            ctx = CellContext(cell=cell, seed=derive_cell_seed(spec.root_seed, cell.key),
                              latency=spec.latency)
            ctx.populated_scenario()


def _wire_record_bytes(result) -> int:
    """Pickled size of the record a pool worker sends for ``result`` (computed)."""
    return len(pickle.dumps({
        "key": result.key, "seed": result.seed, "status": result.status,
        "payload": result.payload.to_json_dict(), "duration_s": result.duration_s,
        "pid": result.pid,
    }))


def _check_cells(run) -> None:
    bad = run.failed + run.degraded
    check(not bad, f"{len(bad)} cells failed or degraded: {bad[0].key if bad else ''}")
    for result in run.results:
        if result.cell.protocol == "croupier":
            error = result.metrics["est_err_avg_final"]
            check(error <= MATRIX_ERROR_TOLERANCE,
                  f"{result.key}: estimate error {error:.4f} above tolerance")


def _sampling(run_cell, log: Path):
    """``run_cell`` with a reference sample taken right before and right after
    each cell, in the process that runs the cell (pool workers are forked, so
    they inherit this wrapper). Each cell appends ``key, before, after`` to
    ``log`` in one write."""

    def sampled(cell, **kwargs):
        before = refclock.sample()
        payload = run_cell(cell, **kwargs)
        after = refclock.sample()
        with open(log, "a") as out:
            out.write(f"{cell.key}\t{before!r}\t{after!r}\n")
        return payload

    return sampled


@dataclass
class Grid:
    """One grid run with its reference samples, in seconds and in refs."""

    run: object
    workers: int
    samples: Dict[str, Tuple[float, float]]
    journal_bytes: int
    started: float
    #: Worker pid -> when its latest cell came back (``progress`` callback).
    stamps: Dict[int, float]

    def compute_s(self, result) -> float:
        """The cell's own seconds, without its two reference samples."""
        return result.duration_s - sum(self.samples[result.key])

    def cost(self, result) -> float:
        """The cell's cost in refs."""
        before, after = self.samples[result.key]
        return self.compute_s(result) / ((before + after) / 2.0)

    @property
    def wall_s(self) -> float:
        """Grid wall seconds, less the reference samples each worker took."""
        sampled = sum(sum(pair) for pair in self.samples.values())
        return self.run.wall_seconds - sampled / self.workers

    @property
    def wall_refs(self) -> float:
        """Grid wall time in refs: the wall seconds scaled by the ratio of refs to
        seconds over the grid's cells, which keeps dispatch and tail idle time."""
        results = self.run.results
        return (self.wall_s * sum(self.cost(r) for r in results)
                / sum(self.compute_s(r) for r in results))


def run_grid(spec, workers: int, journal: Path) -> Grid:
    """Run one grid with a journal, sampling the reference around every cell."""
    from repro.experiments import runner

    log = journal.with_suffix(".refs")
    for stale in (journal, log):
        stale.unlink(missing_ok=True)
    stamps: Dict[int, float] = {}

    def note(result, _done, _total) -> None:
        stamps[result.pid] = time.perf_counter()

    original = runner.run_cell
    runner.run_cell = _sampling(original, log)
    try:
        started = time.perf_counter()
        run = runner.run_matrix(spec, workers=workers, journal_path=journal, progress=note)
    finally:
        runner.run_cell = original
    _check_cells(run)
    samples = {}
    for line in log.read_text().splitlines():
        key, before, after = line.split("\t")
        samples[key] = (float(before), float(after))  # a retried cell keeps its last
    return Grid(run, workers, samples, journal.stat().st_size, started, stamps)


def matrix_mix(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    from repro.experiments.runner import aggregate_json_bytes

    workers = nproc()
    root_seed = derive_seed("matrix-mix", seed)
    setup_wall_s, setup_refs, _ = timed_setups(
        lambda: _matrix_setup(_matrix_spec(root_seed)), MATRIX_SETUPS)
    grids: List[Grid] = []
    while not grids or sum(g.run.wall_seconds for g in grids) < seconds:
        grids.append(run_grid(_matrix_spec(root_seed + len(grids)), workers,
                              out_dir / f"matrix-journal-{len(grids)}.jsonl"))
    cells = [(g, r) for g in grids for r in g.run.results]
    wall = sum(g.wall_s for g in grids)
    wall_refs = sum(g.wall_refs for g in grids)
    compute = sum(g.compute_s(r) for g, r in cells)
    node_rounds = sum(r.cell.size * r.cell.rounds for _, r in cells)
    metrics = {
        "setup_s": setup_refs / refclock.REFS_PER_SECOND,
        "node_rounds_per_ref": node_rounds / wall_refs,
        # Per grid, the mean cost of one cell-round. A median over single cells
        # would fall in the gap between two protocols' costs.
        "round_refs_p50": percentile(
            [sum(g.cost(r) for r in g.run.results)
             / sum(r.cell.rounds for r in g.run.results) for g in grids], 0.5),
        "cells_per_kref": 1000.0 * len(cells) / wall_refs,
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    samples = [s for g in grids for pair in g.samples.values() for s in pair]
    details = {"grids": len(grids), "cells": len(cells), "workers": workers,
               "setup_wall_s": setup_wall_s,
               "wall_s": wall, "compute_s": compute,
               "cells_per_min": 60.0 * len(cells) / wall,
               "node_rounds_per_s": node_rounds / wall,
               "ref_ms_p50": 1000.0 * percentile(samples, 0.5),
               "croupier_error_max": max(r.metrics["est_err_avg_final"] for _, r in cells
                                         if r.cell.protocol == "croupier"),
               "root_seeds": [g.run.spec.root_seed for g in grids]}
    attempted = sum(r.attempts for _, r in cells)
    if not trace:
        return Outcome(attempted, metrics, details)

    first = grids[0]

    def body(tracer, counts):
        tracer.active = True
        again = run_grid(first.run.spec, 1, out_dir / "matrix-journal-traced.jsonl")
        tracer.active = False
        return again

    # Only the first grid is replayed: it bounds the traced run's time and memory.
    tracer, counts, traced = run_traced(out_dir, "matrix-mix", body)
    check(aggregate_json_bytes(traced.run) == aggregate_json_bytes(first.run),
          "traced in-process aggregate differs from the pool run's")
    # Overhead compares the cells' cost, which does not depend on the worker count.
    overhead = (sum(traced.cost(r) for r in traced.run.results)
                / sum(first.cost(r) for r in first.run.results) - 1.0)
    per_layer = layer_metrics(tracer, counts, traced.wall_s, overhead)
    per_layer["core.croupier.shuffle_completion"] = shuffle_completion(counts.croupier_stats)
    per_layer["core.estimator.error"] = statistics.mean(
        r.metrics["est_err_avg_final"] for _, r in cells if r.cell.protocol == "croupier")
    tail_idle = 0.0
    for grid in grids:
        end = max(grid.stamps.values())
        tail_idle += sum(end - last for last in grid.stamps.values())
        tail_idle += (workers - len(grid.stamps)) * (end - grid.started)
    per_layer.update({
        "experiments.runner.busy_share": compute / (workers * wall),
        "experiments.runner.idle_s": workers * wall - compute,
        "experiments.runner.tail_idle_s": tail_idle,
        "experiments.runner.attempts": attempted,
        "experiments.runner.result_bytes": sum(_wire_record_bytes(r) for _, r in cells),
        "experiments.runner.journal_bytes": sum(g.journal_bytes for g in grids),
    })
    for protocol in MATRIX_PROTOCOLS:
        per_layer[f"experiments.cell_s.{protocol}"] = statistics.mean(
            g.compute_s(r) for g, r in cells if r.cell.protocol == protocol)
    return Outcome(attempted, per_layer, details)


WORKLOADS = {
    "object-croupier": object_croupier,
    "columnar-churn": columnar_churn,
    "matrix-mix": matrix_mix,
}
