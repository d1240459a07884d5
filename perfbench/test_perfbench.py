"""Tests for the benchmark's own code: span accounting, wrapper hygiene, metric names."""

from __future__ import annotations

import importlib
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, percentile, self_times  # noqa: E402


def test_self_times_of_a_nested_span_tree():
    # layer 0: [0, 100) with children layer 1 [10, 40) and layer 2 [50, 90);
    # layer 1's span has a layer-2 child [20, 30); a second root, layer 1 [100, 130).
    spans = [  # completion order, as the tracer records them
        (2, 20, 30),
        (1, 10, 40),
        (2, 50, 90),
        (0, 0, 100),
        (1, 100, 130),
    ]
    assert self_times(spans, 3) == [100 - 30 - 40, (30 - 10) + 30, 10 + 40]


@pytest.mark.parametrize("spans", [
    [(1, 0, 50), (0, 10, 60)],  # partial overlap
    [(1, 0, 50), (0, 10, 40)],  # not in completion order
])
def test_self_times_rejects_spans_that_do_not_nest(spans):
    with pytest.raises(ValueError):
        self_times(spans, 2)


class _Toy:
    def work(self, inner):
        return inner()


def _leaf():
    return 7


def test_wrappers_record_only_while_active_and_nest_by_layer():
    tracer = Tracer(["outer", "inner"])
    original = _Toy.__dict__["work"]
    seen = []
    with tracer:
        tracer.wrap_method(_Toy, "work", "outer", observe=lambda args, result: seen.append(result))
        tracer.wrap_function(sys.modules[__name__], "_leaf", "inner")
        toy = _Toy()
        assert toy.work(_leaf_ref) == 7 and tracer.span_count == 0
        tracer.active = True
        assert toy.work(_leaf_ref) == 7
        assert toy.work(lambda: toy.work(_leaf_ref)) == 7  # same-layer nesting: one span
        tracer.active = False
    assert _Toy.__dict__["work"] is original
    assert tracer.calls == [2, 2]
    assert list(tracer.kinds) == [1, 0, 1, 0]
    assert seen == [7, 7, 7]
    shares = tracer.self_seconds()
    assert shares["outer"] >= 0.0 and shares["inner"] >= 0.0


def _leaf_ref():
    # Looked up at call time so that the wrapped module attribute is what runs.
    return sys.modules[__name__]._leaf()


def _snapshot(owners):
    return {(id(owner), name): id(value)
            for owner in owners for name, value in vars(owner).items()}


def test_installing_every_layer_and_restoring_leaves_the_program_untouched():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("repro.")}
    owners = modules + sorted(classes, key=lambda c: (c.__module__, c.__qualname__))
    before = _snapshot(owners)
    from repro.core import croupier
    from repro.simulator import core

    tracer = Tracer(layers.LAYERS)
    with tracer:
        layers.install(tracer, layers.EdgeCounts())
        assert id(core.Simulator.__dict__["run"]) != before[(id(core.Simulator), "run")]
        # a function wrapped where another module imported it by name
        assert id(croupier.select_partner) != before[(id(croupier), "select_partner")]
    assert _snapshot(owners) == before


def test_traced_scenario_matches_untraced_counts():
    from repro.workload.scenario import ScenarioConfig, create_scenario

    def run():
        s = create_scenario(ScenarioConfig(protocol="croupier", seed=5, latency="constant"))
        s.populate(n_public=5, n_private=15)
        return s

    plain = run()
    plain.run_rounds(5)
    tracer, counts = Tracer(layers.LAYERS), layers.EdgeCounts()
    with tracer:
        layers.install(tracer, counts)
        traced = run()
        tracer.active = True
        traced.run_rounds(5)
        tracer.active = False
    assert traced.sim.events_executed == plain.sim.events_executed == counts.events
    assert traced.network.packets_sent == plain.network.packets_sent == counts.packets_sent
    seconds = tracer.self_seconds()
    assert seconds["membership.view"] > 0 and seconds["core.estimator"] > 0
    assert seconds["columnar.merge"] == 0


def test_metric_names_fit_the_contract_and_match_benchmark_json():
    names = list(workloads.END_TO_END) + list(workloads.PER_LAYER)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(workloads.END_TO_END) <= 16 and 1 <= len(workloads.PER_LAYER) <= 128
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it():
    samples = [float(i) for i in range(99)]
    with pytest.raises(ValueError):
        percentile(samples, 0.9)
    assert percentile(samples + [99.0], 0.9) == pytest.approx(89.1)
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_costs_divide_each_time_by_the_samples_around_it():
    assert refclock.costs([1.0, 3.0], [0.5, 1.5, 0.5]) == [1.0, 3.0]
    with pytest.raises(ValueError):
        refclock.costs([1.0, 3.0], [0.5, 1.5])


def test_sampled_grid_restores_the_runner_and_samples_every_cell(tmp_path):
    from repro.experiments import runner
    from repro.experiments.matrix import MatrixSpec

    original = runner.run_cell
    # Cyclon only: the grid check also bounds Croupier's estimate error, which a
    # three-round cell of 20 nodes cannot meet.
    spec = MatrixSpec(scenarios=("static",), protocols=("cyclon",), sizes=(20,),
                      seeds=2, rounds=3, root_seed=7)
    grid = workloads.run_grid(spec, 1, tmp_path / "journal.jsonl")
    assert runner.run_cell is original
    assert sorted(grid.samples) == sorted(r.key for r in grid.run.results)
    assert all(grid.cost(r) > 0 for r in grid.run.results)
    assert 0 < grid.wall_s < grid.run.wall_seconds and grid.wall_refs > 0
