"""Columnar engine tests: flat-array protocol state, pinned state fingerprints,
the engine axis of the experiment matrix, and the ``scale`` scenario kind.

The load-bearing invariants:

* every protocol's state after a fixed script hashes to a pinned fingerprint,
  and the vectorized phases equal their scalar specs entry by entry;
* the engine needs numpy and says so in one clear error when it is missing
  (every other test here skips without numpy);
* the engine axis is additive — cells at ``engine="object"`` keep their exact
  pre-axis keys, so no legacy derived seed moves;
* the columnar scenario implements the capability API, so probes, timelines and
  churn drive it unmodified;
* engine-native streamed statistics equal the per-node facade collection.
"""

import copy
import math
import random

import pytest

from repro.columnar import COLUMNAR_PROTOCOLS, ColumnarEngine, ColumnarScenario
from repro.columnar import backend
from repro.columnar import rng as crng
from repro.errors import ConfigurationError, ExperimentError
from repro.membership.capabilities import NatAware, OverlaySampling, RatioEstimating
from repro.metrics.probes import collect_ratio_estimates
from repro.workload.scenario import (
    ENGINES,
    Scenario,
    ScenarioConfig,
    create_scenario,
)
from repro.workload.timeline import get_timeline

#: ``engine.fingerprint()`` after :func:`run_pinned_script`, per protocol. Any
#: change is an engine-semantics change: the columnar golden moves with it.
PINNED_FINGERPRINTS = {
    "croupier": "e260cc7bf1f2706956e93863da9d6d8003f0955c28e292b60d92a5545ba1051f",
    "cyclon": "a51e3bfc6c852b3066e60312f89cf027a332b550d364957472bc6bbcf6560a68",
    "gozar": "f156aa980dcfc7816dbd94394b3b480334bc1430a7ac0466863f39379e02f517",
    "nylon": "e2057371f7b4d0862b6c173c217d39b3ec9376c34fa4c44620243b59a2df72df",
}


@pytest.fixture
def numpy_hidden(monkeypatch):
    """The columnar backend as it is on a host without numpy."""
    monkeypatch.setattr(backend, "np", None)


@pytest.fixture(autouse=True)
def _numpy_or_skip(request):
    """Every test here runs the numpy engine, except those that hide numpy."""
    if "numpy_hidden" not in request.fixturenames:
        pytest.importorskip("numpy")


def run_pinned_script(protocol):
    """60 nodes (every fifth public), 25 rounds, one kill and one join at 12."""
    engine = ColumnarEngine(
        protocol, view_size=10, shuffle_size=5, rng=random.Random(11),
    )
    for index in range(60):
        engine.add_node(public=index % 5 == 0)
    for round_index in range(25):
        if round_index == 12:
            engine.kill(5)
            engine.add_node(public=False)
        engine.run_round()
    return engine


def columnar_config(seed=7, **kwargs):
    kwargs.setdefault("protocol", "croupier")
    kwargs.setdefault("latency", "constant")
    return ScenarioConfig(seed=seed, engine="columnar", **kwargs)


def make_scenario(seed=7, n_public=20, n_private=80, **kwargs):
    scenario = ColumnarScenario(columnar_config(seed=seed, **kwargs))
    scenario.populate(n_public, n_private)
    return scenario


# --------------------------------------------------------------------- engine core


class TestColumnarEngine:
    def test_views_fill_and_age(self):
        engine = ColumnarEngine(
            "croupier", view_size=10, shuffle_size=5, rng=random.Random(1),
        )
        rows = [engine.add_node(public=True) for _ in range(30)]
        for _ in range(10):
            engine.run_round()
        # Every node's public view holds only live public peers, never itself.
        for row in rows:
            ids = engine.view_ids(row)
            assert ids, "views must fill after 10 rounds"
            assert row not in ids
            assert all(other in rows for other in ids)

    def test_estimates_converge(self):
        engine = ColumnarEngine(
            "croupier", view_size=10, shuffle_size=5, rng=random.Random(2),
        )
        for index in range(100):
            engine.add_node(public=index < 20)
        for _ in range(30):
            engine.run_round()
        measured, mean, avg_err, max_err = engine.estimate_stats(0.2)
        assert measured == 100
        # N=100 is small for the estimator: the sampling variance alone is a few
        # hundredths, so this is a convergence smoke, not a precision bound.
        assert abs(mean - 0.2) < 0.1
        assert avg_err < 0.15
        assert max_err <= 1.0

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            ColumnarEngine("newscast", view_size=10, shuffle_size=5,
                           rng=random.Random(1))

    def test_missing_numpy_is_one_clear_error(self, numpy_hidden):
        with pytest.raises(ConfigurationError, match=r"pip install -e \.\[columnar\]"):
            ColumnarEngine("croupier", view_size=10, shuffle_size=5,
                           rng=random.Random(1))
        with pytest.raises(ConfigurationError, match="numpy"):
            create_scenario(columnar_config())

    @pytest.mark.parametrize("protocol", COLUMNAR_PROTOCOLS)
    def test_fingerprint_is_pinned(self, protocol):
        """The engine's golden invariant, per protocol: the same script always
        leaves the same state, bit for bit."""
        assert run_pinned_script(protocol).fingerprint() == PINNED_FINGERPRINTS[protocol]

    def test_bundles_equal_the_scalar_spec(self):
        """``_bundles_np`` is :meth:`ColumnarEngine._estimate_bundle`, batched."""
        import numpy as np

        from repro.columnar.shuffle import _bundles_np

        engine = run_pinned_script("croupier")
        rows = np.array(engine.live_rows(), dtype=np.int64)
        origs, vals, borns, valid = _bundles_np(engine, np, rows)
        for k, row in enumerate(rows.tolist()):
            batched = [
                (int(origs[k, b]), float(vals[k, b]), int(borns[k, b]))
                for b in range(valid.shape[1]) if valid[k, b]
            ]
            assert batched == engine._estimate_bundle(row)

    def test_batch_ingest_equals_the_scalar_spec(self):
        """``_batch_ingest_np`` is :meth:`ColumnarEngine._ingest_estimates`
        applied row by row: refreshes, inserts and ring evictions alike."""
        import numpy as np

        from repro.columnar.shuffle import _batch_ingest_np, _bundles_np

        engine = run_pinned_script("croupier")
        rows = np.array(engine.live_rows(), dtype=np.int64)
        # Each row ingests its successor's bundle, twice over: the second pass
        # meets origins the first one inserted.
        origs, vals, borns, valid = _bundles_np(engine, np, np.roll(rows, -1))
        batched, scalar = copy.deepcopy(engine), copy.deepcopy(engine)
        for _ in range(2):
            _batch_ingest_np(batched, np, rows, origs, vals, borns, valid)
            for k, row in enumerate(rows.tolist()):
                scalar._ingest_estimates(row, [
                    (int(origs[k, b]), float(vals[k, b]), int(borns[k, b]))
                    for b in range(valid.shape[1]) if valid[k, b]
                ])
            borns = borns + 1  # strictly fresher copies refresh in place
        assert batched.fingerprint() == scalar.fingerprint()
        assert batched.fingerprint() != engine.fingerprint()

    def test_batch_merge_equals_the_sequential_rule(self):
        """``_batch_merge_np`` is the merge rule of the shuffle module docstring
        applied one row at a time: refreshes, placements into empty slots,
        evictions over still-present sent entries, and drops."""
        import numpy as np

        from repro.columnar.backend import as_np
        from repro.columnar.shuffle import _batch_merge_np

        engine = run_pinned_script("nylon")  # nylon also carries learned_from
        V, K, n = engine.V, engine.K, engine.rows
        ids2d = as_np(engine.pub_id)[: n * V].reshape(n, V)
        ages2d = as_np(engine.pub_age)[: n * V].reshape(n, V)
        aux2d = as_np(engine.learned_from)[: n * V].reshape(n, V)
        rows = np.array(engine.live_rows()[::2], dtype=np.int64)
        donors = np.roll(rows, 1)
        # Received: a donor's first K slots, an empty entry and the row itself.
        rec_ids = np.hstack([ids2d[donors, :K], np.full((rows.size, 1), -1), rows[:, None]])
        rec_ages = np.hstack([ages2d[donors, :K], np.zeros((rows.size, 2), dtype=np.int32)])
        rec_aux = donors
        # Sent: the row's first three slots, the last one stale (id changed).
        sent_slots = np.tile(np.arange(3), (rows.size, 1))
        sent_ids = ids2d[rows, :3].astype(np.int64)
        sent_ids[:, 2] = np.where(sent_ids[:, 2] >= 0, sent_ids[:, 2] + 10**6, -1)

        expected = [
            (ids2d[row].tolist(), ages2d[row].tolist(), aux2d[row].tolist())
            for row in rows.tolist()
        ]
        for k, row in enumerate(rows.tolist()):
            view_ids, view_ages, view_aux = expected[k]
            snap = list(view_ids)
            unmatched = []
            for nid, age in zip(rec_ids[k].tolist(), rec_ages[k].tolist()):
                if nid < 0 or nid == row:
                    continue
                if nid in snap:
                    slot = snap.index(nid)
                    view_ages[slot] = min(view_ages[slot], age)
                    view_aux[slot] = int(rec_aux[k])
                else:
                    unmatched.append((nid, age))
            targets = [slot for slot in range(V) if snap[slot] < 0] + [
                slot for nid, slot in zip(sent_ids[k].tolist(), sent_slots[k].tolist())
                if nid >= 0 and snap[slot] == nid
            ]
            for (nid, age), slot in zip(unmatched, targets):
                view_ids[slot], view_ages[slot] = nid, age
                view_aux[slot] = int(rec_aux[k])

        _batch_merge_np(np, ids2d, ages2d, aux2d, rows,
                        rec_ids, rec_ages, rec_aux, sent_ids, sent_slots)
        actual = [
            (ids2d[row].tolist(), ages2d[row].tolist(), aux2d[row].tolist())
            for row in rows.tolist()
        ]
        assert actual == expected

    def test_vector_draws_equal_the_scalar_spec(self):
        import numpy as np

        keys = [0, 1, 2, 59, 12345, 2**32 + 7, 2**63 - 1, 2**64 - 1]
        key_array = np.array(keys, dtype=np.uint64)
        for tag in (crng.TAG_TIE, crng.TAG_LOSS_REQ, crng.TAG_PARENT):
            base = crng.stream(0x5EED, 17, tag)
            assert crng.draws_np(np, base, key_array).tolist() == [
                crng.draw(base, key) for key in keys
            ]
            assert crng.uniforms_np(np, base, key_array).tolist() == [
                crng.draw_uniform(base, key) for key in keys
            ]

    def test_estimate_stats_equals_facade_collection(self):
        scenario = make_scenario(seed=5)
        scenario.run_rounds(15)
        true_ratio = scenario.true_ratio()
        measured, mean, avg_err, max_err = scenario.engine.estimate_stats(true_ratio)
        estimates = [e for e in collect_ratio_estimates(scenario) if e is not None]
        assert measured == len(estimates)
        assert mean == sum(estimates) / len(estimates)
        deviations = [abs(true_ratio - e) for e in estimates]
        assert avg_err == sum(deviations) / len(deviations)
        assert max_err == max(deviations)

    def test_in_degree_histogram_counts_live_edges(self):
        scenario = make_scenario(seed=6, n_public=10, n_private=30)
        scenario.run_rounds(10)
        histogram = scenario.engine.in_degree_histogram().to_histogram()
        live = scenario.live_count()
        assert sum(histogram.values()) == live
        total_edges = sum(bin_ * count for bin_, count in histogram.items())
        graph = scenario.overlay_graph()
        assert total_edges == sum(len(view) for view in graph.values())


# ----------------------------------------------------------------- scenario facade


class TestColumnarScenario:
    def test_capability_api(self):
        scenario = make_scenario()
        assert scenario.supports(OverlaySampling)
        assert scenario.supports(RatioEstimating)
        services = list(scenario.services_with(RatioEstimating))
        assert len(services) == 100
        service = services[0]
        assert service.current_round >= 0
        estimate = service.estimated_ratio()
        assert estimate is None or 0.0 <= estimate <= 1.0

    def test_cyclon_has_no_estimation(self):
        scenario = make_scenario(protocol="cyclon")
        assert scenario.supports(OverlaySampling)
        assert not scenario.supports(RatioEstimating)
        assert collect_ratio_estimates(scenario) == []

    def test_rejects_object_only_features(self):
        with pytest.raises(ConfigurationError):
            ColumnarScenario(columnar_config(identify_nat_types=True))
        with pytest.raises(ConfigurationError):
            ColumnarScenario(ScenarioConfig(protocol="croupier", seed=1))

    def test_determinism_same_seed_same_fingerprint(self):
        runs = []
        for _ in range(2):
            scenario = make_scenario(seed=13)
            scenario.run_rounds(12)
            runs.append(scenario.engine.fingerprint())
        assert runs[0] == runs[1]

    def test_clone_continues_bit_identically(self):
        scenario = make_scenario(seed=14)
        scenario.run_rounds(8)
        clone = scenario.clone()
        scenario.run_rounds(7)
        clone.run_rounds(7)
        assert scenario.engine.fingerprint() == clone.engine.fingerprint()

    def test_churn_replaces_population(self):
        scenario = make_scenario(seed=15)
        scenario.run_rounds(5)
        before = scenario.live_count()
        scenario.churn_step(0.1)
        assert scenario.live_count() == before
        assert abs(scenario.true_ratio() - 0.2) < 0.1

    def test_timeline_installs_and_fires(self):
        scenario = make_scenario(seed=16, n_public=12, n_private=48)
        timeline = get_timeline("paper-failure")
        installed = timeline.install(scenario, horizon_rounds=70)
        installed.advance_rounds(65)
        # Half the population dies at the t=61 boundary.
        assert scenario.live_count() == 30

    def test_overhead_public_exceeds_private(self):
        scenario = make_scenario(seed=17)
        scenario.run_rounds(10)
        start = scenario.traffic_snapshot()
        scenario.run_rounds(10)
        monitor = scenario.monitor
        public = monitor.average_load_bps(
            start, scenario.now,
            node_filter=set(scenario.live_public_ids()).__contains__,
        )
        private = monitor.average_load_bps(
            start, scenario.now,
            node_filter=set(scenario.live_private_ids()).__contains__,
        )
        assert public > private > 0.0


# ------------------------------------------------------------------- engine axis


class TestEngineAxis:
    def test_engines_vocabulary(self):
        assert ENGINES == ("object", "columnar")
        assert set(COLUMNAR_PROTOCOLS) == {"croupier", "cyclon", "gozar", "nylon"}

    def test_create_scenario_dispatch(self):
        assert isinstance(
            create_scenario(ScenarioConfig(protocol="croupier", seed=1)), Scenario
        )
        assert isinstance(create_scenario(columnar_config()), ColumnarScenario)

    def test_object_scenario_rejects_columnar_config(self):
        with pytest.raises(ConfigurationError):
            Scenario(columnar_config())

    def test_default_engine_keeps_legacy_cell_keys(self):
        """The axis is additive: engine=object cells carry the exact pre-axis key."""
        from repro.experiments.matrix import CellSpec

        legacy = CellSpec(scenario="static", protocol="croupier", size=60,
                          seed_index=0, rounds=10)
        assert "engine" not in legacy.key
        columnar = CellSpec(scenario="static", protocol="croupier", size=60,
                            seed_index=0, rounds=10, engine="columnar")
        assert ";engine=columnar" in columnar.key
        assert columnar.key.replace(";engine=columnar", "") == legacy.key

    def test_columnar_cell_seed_differs_from_object(self):
        from repro.experiments.matrix import CellSpec, derive_cell_seed

        base = dict(scenario="static", protocol="croupier", size=60,
                    seed_index=0, rounds=10)
        assert derive_cell_seed(42, CellSpec(**base).key) != derive_cell_seed(
            42, CellSpec(engine="columnar", **base).key
        )

    def test_matrix_validates_columnar_protocols(self):
        from repro.experiments.matrix import MatrixSpec

        spec = MatrixSpec(scenarios=("static",), protocols=("newscast",),
                          sizes=(20,), seeds=1, rounds=5,
                          engines=("columnar",))
        with pytest.raises(ExperimentError):
            spec.validate()

    def test_matrix_runs_both_engines(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("static",), protocols=("croupier",),
                          sizes=(40,), seeds=1, rounds=8, latency="constant",
                          engines=("object", "columnar"))
        result = run_matrix(spec, workers=1)
        assert not result.failed
        groups = result.aggregate["groups"]
        assert set(groups) == {
            "scenario=static;protocol=croupier;size=40",
            "scenario=static;protocol=croupier;engine=columnar;size=40",
        }
        for metrics in groups.values():
            assert 0.0 < metrics["est_mean"]["mean"] < 1.0


# -------------------------------------------------------------------- scale kind


class TestScaleKind:
    def test_scale_cell_runs_on_both_engines(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("scale",), protocols=("croupier",),
                          sizes=(50,), seeds=1, rounds=12, latency="constant",
                          engines=("object", "columnar"))
        result = run_matrix(spec, workers=1)
        assert not result.failed
        for payload in (r.payload for r in result.results):
            assert "est_err_avg_final" in payload.scalars
            assert "est_nodes_measured" in payload.scalars
            assert "in_degree" in payload.histograms
            assert "est_err_avg" in payload.series
            # No graph walks at scale: the GraphProbe-only metrics are absent.
            assert "path_length" not in payload.scalars
            assert "clustering" not in payload.scalars

    def test_scale_invariance_report_section(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.report import matrix_markdown_summary
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("scale",), protocols=("croupier",),
                          sizes=(40, 80), seeds=1, rounds=10, latency="constant",
                          engines=("columnar",))
        summary = matrix_markdown_summary(run_matrix(spec, workers=1).aggregate)
        assert "## Scale invariance" in summary
        assert "| columnar | 40 |" in summary
        assert "| columnar | 80 |" in summary

    def test_legacy_report_has_no_scale_section(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.report import matrix_markdown_summary
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("static",), protocols=("croupier",),
                          sizes=(30,), seeds=1, rounds=5, latency="constant")
        summary = matrix_markdown_summary(run_matrix(spec, workers=1).aggregate)
        assert "Scale invariance" not in summary

    def test_run_scale_experiment_harness(self):
        from repro.experiments.scale import run_scale_experiment

        result = run_scale_experiment(nodes=300, rounds=20, seed=3,
                                      churn_fraction=0.02, measure_every=2)
        assert [v.label for v in result.variants] == ["static", "churn"]
        for variant in result.variants:
            assert variant.nodes_measured > 0
            assert variant.final_avg_error is not None
            assert variant.node_rounds_per_sec > 0
            assert variant.peak_rss_mb > 0
            assert variant.est_scatter
            assert all(0.0 <= value <= 1.0 for value in variant.est_scatter)
        text = result.to_text()
        assert "static" in text and "churn" in text
        assert "estimate scatter" in text

    def test_scale_cell_records_estimate_scatter(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.runner import run_matrix
        from repro.experiments.scale import SCATTER_CAPACITY

        spec = MatrixSpec(scenarios=("scale",), protocols=("croupier",),
                          sizes=(50,), seeds=1, rounds=12, latency="constant",
                          engines=("object", "columnar"))
        result = run_matrix(spec, workers=1)
        assert not result.failed
        by_engine = {
            ("columnar" if "engine=columnar" in r.cell.key else "object"): r.payload
            for r in result.results
        }
        scatter = by_engine["columnar"].series["est_scatter"]
        assert 0 < len(scatter) <= SCATTER_CAPACITY
        assert all(0.0 <= value <= 1.0 for _idx, value in scatter)
        # Object cells keep the facade path and record no scatter series.
        assert "est_scatter" not in by_engine["object"].series

    def test_scatter_is_deterministic(self):
        from repro.experiments.scale import sample_estimate_scatter

        samples = []
        for _ in range(2):
            scenario = make_scenario(seed=31, n_public=40, n_private=160)
            scenario.run_rounds(12)
            samples.append(sample_estimate_scatter(scenario))
        assert samples[0] == samples[1]
        assert samples[0]


# ------------------------------------------------------- NAT protocol ports


NAT_PROTOCOLS = ("gozar", "nylon")


class TestNatProtocolPorts:
    """Gozar and Nylon on the columnar engine: capabilities, reach, cell keys."""

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_capability_dispatch(self, protocol):
        scenario = make_scenario(protocol=protocol)
        assert scenario.supports(OverlaySampling)
        assert scenario.supports(NatAware)
        assert not scenario.supports(RatioEstimating)
        service = next(iter(scenario.services_with(NatAware)))
        expected = "relay" if protocol == "gozar" else "hole-punching"
        assert service.private_peer_strategy() == expected

    def test_croupier_strategy_unchanged(self):
        scenario = make_scenario()
        service = next(iter(scenario.services_with(NatAware)))
        assert service.private_peer_strategy() == "croupier-indirection"

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_in_degree_histogram_matches_graph(self, protocol):
        """Engine-native streamed stats equal the per-node facade collection."""
        scenario = make_scenario(protocol=protocol, seed=24, n_public=10,
                                 n_private=30)
        scenario.run_rounds(12)
        histogram = scenario.engine.in_degree_histogram().to_histogram()
        assert sum(histogram.values()) == scenario.live_count()
        total_edges = sum(bin_ * count for bin_, count in histogram.items())
        graph = scenario.overlay_graph()
        assert total_edges == sum(len(view) for view in graph.values())

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_views_fill_and_private_nodes_reached(self, protocol):
        scenario = make_scenario(protocol=protocol, seed=25)
        scenario.run_rounds(20)
        graph = scenario.overlay_graph()
        assert sum(len(view) for view in graph.values()) > 0
        # NAT traversal working: some private node appears in somebody's view.
        private = set(scenario.live_private_ids())
        reached = {peer for view in graph.values() for peer in view}
        assert reached & private

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_legacy_cell_keys_unchanged(self, protocol):
        from repro.experiments.matrix import CellSpec

        base = dict(scenario="static", protocol=protocol, size=60,
                    seed_index=0, rounds=10)
        legacy = CellSpec(**base)
        assert "engine" not in legacy.key
        columnar = CellSpec(engine="columnar", **base)
        assert columnar.key.replace(";engine=columnar", "") == legacy.key

    def test_matrix_validates_all_paper_protocols_on_columnar(self):
        from repro.experiments.matrix import MatrixSpec

        spec = MatrixSpec(scenarios=("static",), protocols=COLUMNAR_PROTOCOLS,
                          sizes=(20,), seeds=1, rounds=5, latency="constant",
                          engines=("columnar",))
        spec.validate()

    def test_unsupported_protocol_error_names_object_engine(self):
        with pytest.raises(ConfigurationError, match="engine='object'"):
            ColumnarScenario(columnar_config(protocol="arrg"))


# ----------------------------------------------------------- cross-engine checks


class TestCrossEngine:
    def test_estimator_means_agree(self):
        """The CI equivalence contract, in-process: both engines' mean estimates
        converge to ω on the same population within loose tolerance."""
        results = {}
        for engine in ENGINES:
            scenario = create_scenario(
                ScenarioConfig(protocol="croupier", seed=9, latency="constant",
                               engine=engine)
            )
            scenario.populate(20, 80)
            scenario.run_rounds(40)
            estimates = [e for e in collect_ratio_estimates(scenario)
                         if e is not None]
            results[engine] = sum(estimates) / len(estimates)
        assert abs(results["object"] - results["columnar"]) < 0.05
        for mean in results.values():
            assert math.isfinite(mean)
