"""Streaming accumulators vs materialised metrics: exact parity, byte for byte.

The columnar engine never materialises per-node value lists; it streams
observations into :class:`StreamingHistogram` / :class:`ReservoirSample`. These
tests pin the contract that makes that safe: a streamed histogram is **exactly**
the histogram the object backend's probes would have built from the raw values —
same integer bins, same counts, same serialised bytes once it lands in a
:class:`MetricPayload` and an aggregate JSON.
"""

import json
import random
from collections import Counter

import pytest

from repro.columnar.streaming import ReservoirSample, StreamingHistogram
from repro.metrics.payload import MetricPayload, histogram_statistics, merge_histograms


def payload_bytes(payload: MetricPayload) -> bytes:
    """Serialise the way the aggregate writer does: sorted keys, canonical JSON."""
    return json.dumps(payload.to_json_dict(), sort_keys=True).encode()


# ------------------------------------------------------------ histogram parity


class TestStreamingHistogram:
    def test_matches_counter_exactly(self):
        rng = random.Random(31)
        values = [rng.randrange(0, 40) for _ in range(5000)]
        streamed = StreamingHistogram()
        streamed.add_many(values)
        assert streamed.to_histogram() == dict(Counter(values))
        assert streamed.total == len(values)
        assert len(streamed) == len(set(values))

    def test_add_with_count_and_prebinned_fold(self):
        rng = random.Random(32)
        values = [rng.randrange(0, 12) for _ in range(800)]
        one_by_one = StreamingHistogram()
        for value in values:
            one_by_one.add(value)
        prebinned = StreamingHistogram()
        prebinned.add_counts(Counter(values))
        assert one_by_one.to_histogram() == prebinned.to_histogram()

    def test_add_counts_skips_zero_counts(self):
        histogram = StreamingHistogram()
        histogram.add_counts({3: 0, 4: 2})
        assert histogram.to_histogram() == {4: 2}

    def test_merge_is_binwise_sum(self):
        rng = random.Random(33)
        chunks = [[rng.randrange(0, 20) for _ in range(500)] for _ in range(4)]
        merged = StreamingHistogram()
        for chunk in chunks:
            part = StreamingHistogram()
            part.add_many(chunk)
            merged.merge(part)
        flat = [value for chunk in chunks for value in chunk]
        assert merged.to_histogram() == dict(Counter(flat))
        # ...and agrees with the aggregate-side merger used across cell seeds.
        parts = [dict(Counter(chunk)) for chunk in chunks]
        assert merged.to_histogram() == merge_histograms(parts)

    def test_values_are_binned_as_ints(self):
        histogram = StreamingHistogram()
        histogram.add_many([1.9, 1.2, 2.0])
        assert histogram.to_histogram() == {1: 2, 2: 1}

    def test_statistics_match_materialised(self):
        rng = random.Random(34)
        values = [rng.randrange(0, 50) for _ in range(3000)]
        streamed = StreamingHistogram()
        streamed.add_many(values)
        stats = histogram_statistics(streamed.to_histogram())
        assert stats == histogram_statistics(dict(Counter(values)))
        assert stats["count"] == len(values)
        assert stats["mean"] == pytest.approx(sum(values) / len(values))


# ----------------------------------------------------- payload + JSON round trip


class TestPayloadParity:
    def test_streamed_payload_bytes_equal_materialised(self):
        """The load-bearing byte contract: a streamed histogram serialises to the
        identical aggregate bytes as one built from the materialised values."""
        rng = random.Random(35)
        values = [rng.randrange(0, 30) for _ in range(2000)]

        streamed = StreamingHistogram()
        streamed.add_many(values)
        via_stream = MetricPayload()
        via_stream.set_histogram("in_degree", streamed.to_histogram())

        via_values = MetricPayload()
        via_values.set_histogram("in_degree", Counter(values))

        assert payload_bytes(via_stream) == payload_bytes(via_values)

    def test_json_round_trip_is_lossless(self):
        streamed = StreamingHistogram()
        streamed.add_many([0, 0, 3, 17, 17, 17])
        payload = MetricPayload()
        payload.set_histogram("in_degree", streamed.to_histogram())
        payload.set_scalar("live_nodes", 6.0)

        wire = json.loads(json.dumps(payload.to_json_dict(), sort_keys=True))
        restored = MetricPayload.from_json_dict(wire)
        # Bins come back as ints, not the JSON string keys.
        assert restored.histograms["in_degree"] == {0: 2, 3: 1, 17: 3}
        assert payload_bytes(restored) == payload_bytes(payload)

    def test_engine_in_degree_histogram_round_trips(self):
        """End to end: the columnar engine's streamed in-degree histogram equals a
        hand-materialised count and survives the aggregate JSON round trip."""
        pytest.importorskip("numpy")
        from repro.columnar import ColumnarScenario
        from repro.workload.scenario import ScenarioConfig

        scenario = ColumnarScenario(
            ScenarioConfig(protocol="croupier", seed=23, latency="constant",
                           engine="columnar")
        )
        scenario.populate(8, 32)
        scenario.run_rounds(12)

        streamed = scenario.engine.in_degree_histogram().to_histogram()
        graph = scenario.overlay_graph()
        in_degrees = Counter()
        for node in graph:
            in_degrees[node] = 0
        for view in graph.values():
            for target in view:
                in_degrees[target] += 1
        materialised = Counter(in_degrees.values())
        assert streamed == dict(materialised)

        payload = MetricPayload()
        payload.set_histogram("in_degree", streamed)
        wire = json.loads(json.dumps(payload.to_json_dict(), sort_keys=True))
        assert MetricPayload.from_json_dict(wire).histograms["in_degree"] == streamed


# --------------------------------------------------------------- reservoir sample


class TestReservoirSample:
    def test_keeps_everything_below_capacity(self):
        reservoir = ReservoirSample(10, rng=random.Random(1))
        reservoir.extend([1.0, 2.0, 3.0])
        assert reservoir.values == [1.0, 2.0, 3.0]
        assert reservoir.seen == 3
        assert len(reservoir) == 3

    def test_capacity_is_a_hard_bound(self):
        reservoir = ReservoirSample(16, rng=random.Random(2))
        reservoir.extend(float(i) for i in range(10_000))
        assert len(reservoir) == 16
        assert reservoir.seen == 10_000
        assert all(0.0 <= v < 10_000.0 for v in reservoir.values)

    def test_deterministic_given_rng(self):
        samples = []
        for _ in range(2):
            reservoir = ReservoirSample(8, rng=random.Random(42))
            reservoir.extend(float(i) for i in range(1000))
            samples.append(reservoir.values)
        assert samples[0] == samples[1]

    def test_matches_reference_algorithm_r(self):
        """Bit-for-bit against a transparent Algorithm R implementation driven by
        the same rng stream — the class adds no hidden draws."""
        rng_a, rng_b = random.Random(7), random.Random(7)
        capacity, stream = 5, [float(i) for i in range(200)]

        reservoir = ReservoirSample(capacity, rng=rng_a)
        reservoir.extend(stream)

        reference = []
        for index, value in enumerate(stream):
            if index < capacity:
                reference.append(value)
                continue
            slot = rng_b.randrange(index + 1)
            if slot < capacity:
                reference[slot] = value
        assert reservoir.values == reference

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSample(0)
