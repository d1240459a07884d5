"""Which program functions make up each layer, and the counts taken at their edges.

The layer names follow the ``repro`` package's own modules. The object engine's
layers are the simulator kernel, the network, NAT emulation, the partial view,
the protocols, Croupier's estimator, the workload drivers and the metric probes.
The columnar engine's layers are the phases of its batched round. A traced run
calls :func:`install` before it builds a scenario, because a component binds its
message handlers and timer callbacks when it is created.
"""

from __future__ import annotations

from typing import List

from spans import Tracer

OBJECT_LAYERS = (
    "simulator.kernel",
    "simulator.network",
    "nat",
    "membership.view",
    "membership.protocol",
    "core.croupier",
    "core.estimator",
    "workload",
    "metrics",
)
COLUMNAR_PHASES = ("age", "estimators", "shuffle", "subsets", "merge", "ingest", "bundles",
                   "lifecycle")
LAYERS = OBJECT_LAYERS + tuple(f"columnar.{phase}" for phase in COLUMNAR_PHASES)

#: A public-view merge with fewer rows than this is a "small" wave.
SMALL_WAVE_ROWS = 128


def _private(cls) -> tuple:
    """A protocol's private methods: message handlers and helpers that only the
    protocol itself calls, from inside an already open span of its layer."""
    return tuple(name for name in vars(cls) if name.startswith("_"))


def protocol_layer(component) -> str:
    """The layer a component-level call belongs to, from the component's class."""
    module = type(component).__module__
    if module.startswith("repro.core."):
        return "core.croupier"
    if module.startswith("repro.natid."):
        return "nat"
    return "membership.protocol"


class EdgeCounts:
    """Counts observed at layer edges while the tracer records.

    They come from the calls themselves rather than from a scenario's counters,
    so they add up across every scenario a run builds, matrix cells included.
    """

    def __init__(self) -> None:
        self.events = 0
        self.packets_sent = 0
        self.packets_delivered = 0
        self.drops = 0
        #: The PssStatistics of every Croupier node that joined while recording.
        self.croupier_stats: List[object] = []
        self.nodes_replaced = 0
        self.nat_inbound = 0
        self.nat_filtered = 0
        self.shuffle_passes = 0
        self.wave_rows: List[int] = []
        self._pass_rows: List[int] = []

    def ran(self, args, executed) -> None:
        self.events += executed

    def sent(self, args, _result) -> None:
        self.packets_sent += 1

    def delivered(self, args, _result) -> None:
        self.packets_delivered += 1

    def dropped(self, args, _result) -> None:
        self.drops += 1

    def croupier_created(self, args, _result) -> None:
        self.croupier_stats.append(args[0].stats)

    def churned(self, args, replaced) -> None:
        self.nodes_replaced += replaced

    def inbound(self, args, internal) -> None:
        self.nat_inbound += 1
        self.nat_filtered += internal is None

    def merged(self, args, _result) -> None:
        # _batch_merge_np(np, ids2d, ages2d, aux2d, rows, rec_ids, rec_ages, rec_aux, ...):
        # public-view merges pass the partner/initiator column as rec_aux, the
        # private-view merges of the same wave pass None.
        if args[7] is not None:
            self._pass_rows.append(len(args[4]))

    def shuffled(self, args, _result) -> None:
        # Each pass merges its waves in order and then, last, the responses of
        # phase H into the initiators; that final public merge is not a wave.
        self.shuffle_passes += 1
        self.wave_rows.extend(self._pass_rows[:-1])
        self._pass_rows.clear()


def install(tracer: Tracer, counts: EdgeCounts) -> None:
    """Wrap every layer's functions. Undo with ``tracer.restore()``."""
    from repro.columnar import engine as col_engine
    from repro.columnar import scenario as col_scenario
    from repro.columnar import shuffle as col_shuffle
    from repro.core import croupier, estimator, sampling
    from repro.membership import base, cyclon, gozar, nylon, policies, view
    from repro.metrics import collector, estimation, graph, overhead, partition, payload, probes
    from repro.nat import nat_box
    from repro.simulator import component, core, host, monitor, network
    from repro.workload import churn, events, failure, join, ratio, scenario, timeline

    # Helpers that only their own layer calls stay unwrapped: a wrapper there
    # records no span and only adds overhead.
    #
    # Kernel: the event loop, timers, and scheduling. Event callbacks that no layer
    # below claims run as kernel self time.
    tracer.wrap_methods(core.Simulator, "simulator.kernel",
                        skip=("_fire", "step", "schedule_at"), observers={"run": counts.ran})
    tracer.wrap_methods(component.PeriodicTimer, "simulator.kernel")
    # Component-level entry points (packet dispatch, start/stop, the round timer's
    # callback) are attributed to the protocol they serve. Protocols reach
    # everything else from inside those.
    tracer.wrap_method(component.Component, "handle_packet", protocol_layer)
    tracer.wrap_method(component.Component, "start", protocol_layer)
    tracer.wrap_method(component.Component, "stop", protocol_layer)
    tracer.wrap_methods(base.PeerSamplingService, protocol_layer, skip=("self_descriptor",))

    # Latency and loss models, Host.source_endpoint and Network.send run only
    # inside the network layer; the monitor is wrapped just to count.
    tracer.wrap_methods(network.Network, "simulator.network", skip=("send",))
    tracer.wrap_methods(host.Host, "simulator.network", skip=("source_endpoint",),
                        observers={"deliver": counts.delivered})
    tracer.wrap_method(monitor.TrafficMonitor, "record_sent", "simulator.network",
                       observe=counts.sent)
    tracer.wrap_method(monitor.TrafficMonitor, "record_drop", "simulator.network",
                       observe=counts.dropped)

    # No workload creates UPnP or firewall gateways, so the NatBox base class
    # sees every NAT decision.
    tracer.wrap_methods(nat_box.NatBox, "nat", skip=("_expire_bindings", "_mapping_key"),
                        observers={"accept_inbound": counts.inbound})

    tracer.wrap_methods(view.PartialView, "membership.view")
    for name in ("select_partner", "merge_views"):
        tracer.wrap_function(policies, name, "membership.view")

    for cls in (cyclon.Cyclon, gozar.Gozar, nylon.Nylon):
        tracer.wrap_methods(cls, "membership.protocol", skip=_private(cls))
    tracer.wrap_methods(croupier.Croupier, "core.croupier", skip=_private(croupier.Croupier),
                        observers={"initialize_view": counts.croupier_created})
    tracer.wrap_function(sampling, "generate_random_sample", "core.croupier")
    tracer.wrap_methods(estimator.RatioEstimator, "core.estimator")

    tracer.wrap_methods(scenario.Scenario, "workload", observers={"churn_step": counts.churned})
    for module in (churn, join, ratio, failure, timeline, events):
        tracer.wrap_module(module, "workload")
    for module in (collector, estimation, graph, overhead, partition, payload, probes):
        tracer.wrap_module(module, "metrics")

    engine = col_engine.ColumnarEngine
    tracer.wrap_method(engine, "_age_views", "columnar.age")
    tracer.wrap_method(engine, "_advance_estimators", "columnar.estimators")
    tracer.wrap_method(engine, "_ingest_estimates", "columnar.ingest")
    tracer.wrap_method(engine, "_estimate_bundle", "columnar.bundles")
    for name in ("add_node", "kill", "_grow", "reserve"):
        tracer.wrap_method(engine, name, "columnar.lifecycle")
    for name in ("churn_step", "add_node", "add_public_node", "add_private_node", "kill",
                 "kill_random_fraction", "populate"):
        tracer.wrap_method(col_scenario.ColumnarScenario, name, "columnar.lifecycle")
    # Phases A-D and H run inline in _shuffle_numpy; the wave loop's sub-steps
    # are the helpers below it.
    tracer.wrap_function(col_shuffle, "_shuffle_numpy", "columnar.shuffle",
                         observe=counts.shuffled)
    tracer.wrap_function(col_shuffle, "_subsets_np", "columnar.subsets")
    tracer.wrap_function(col_shuffle, "_batch_merge_np", "columnar.merge",
                         observe=counts.merged)
    tracer.wrap_function(col_shuffle, "_batch_ingest_np", "columnar.ingest")
    tracer.wrap_function(col_shuffle, "_bundles_np", "columnar.bundles")
