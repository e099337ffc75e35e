"""Outside-in instrumentation for the benchmark's traced run.

Everything here replaces attributes of the package's classes and
modules from outside, and ``Patches.restore`` puts the originals back;
nothing under ``src/`` knows about it.  Two independent parts:

* ``Counter`` registers the components the package constructs and,
  when ``Simulator.run`` returns, reads the stats they already keep
  into one count record per unit.  Nothing is timed.
* ``Tracer`` records a span (layer, start, end, parent) around each
  call into one of the ``ENTRY_POINTS`` and derives each layer's self
  time: its spans' durations less the parts their child spans cover.
  It keeps the first ``SPANS_PER_UNIT`` spans of each unit for the
  spans file, and counts every span it opens.  A call that stays in the caller's layer opens no span.  An event
  callback runs under a span of the layer whose module defines it
  (the callback is wrapped when it is scheduled), and a timer's expiry
  under the layer of the timer's callback.  The observer callbacks
  that ``attach_to_scenario`` and ``Validator.attach`` install are
  wrapped once installed, so their own work is ``metrics`` and
  ``validate`` time.

``LAYER_MAP`` and ``INLINED`` document the attribution; the driver
writes both into every result file.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array
from typing import Callable, Dict, List

#: Module prefix -> layer; the first match wins.
LAYER_PREFIXES = (
    ("repro.experiments.congestion", "congestion"),
    ("repro.engine", "engine"),
    ("repro.channel", "channel"),
    ("repro.net", "net"),
    ("repro.linklayer", "linklayer"),
    ("repro.tcp", "tcp"),
    ("repro.core", "core"),
    ("repro.validate", "validate"),
    ("repro.metrics", "metrics"),
    ("repro.experiments", "experiments"),
    ("repro.handoff", "handoff"),
    ("repro.csdp", "csdp"),
)
LAYERS = tuple(name for _, name in LAYER_PREFIXES) + ("other",)
LAYER = {name: index for index, name in enumerate(LAYERS)}

#: (layer, module, class or None, attributes): the calls that open a
#: span.  A private method is listed where an observer captures it, so
#: the observer's own work is told apart from the work it wraps.
ENTRY_POINTS = (
    ("engine", "repro.engine.simulator", "Simulator", ("run",)),
    ("engine", "repro.engine.timer", "Timer", ("start", "restart", "cancel")),
    ("channel", "repro.channel.twostate", "TwoStateChannel", ("corrupts", "exposure")),
    ("net", "repro.net.wireless", "WirelessLink", ("send",)),
    ("net", "repro.net.link", "WiredLink", ("send",)),
    ("net", "repro.net.node", "Node", ("receive",)),
    ("linklayer", "repro.linklayer.port", "WirelessPort",
     ("send_datagram", "receive_frame", "_transmit")),
    ("tcp", "repro.tcp.tahoe", "TahoeSender", ("receive", "_handle_icmp", "_on_timeout")),
    ("tcp", "repro.tcp.sink", "TcpSink", ("receive", "_deliver")),
    ("core", "repro.core.ebsn", "EbsnGenerator", ("on_attempt_failed", "on_recovered")),
    ("core", "repro.core.quench", "QuenchGenerator",
     ("on_attempt_failed", "on_queue_depth", "note_data_source")),
    ("core", "repro.core.snoop", "SnoopAgent", ("on_wired_data", "on_wireless_ack")),
    ("core", "repro.core.split", "SplitRelay", ("on_wired_data", "on_wireless_ack", "receive")),
    ("validate", "repro.validate.engine", None, ("run_validated",)),
    ("metrics", "repro.metrics.eventlog", "EventLog", ("record",)),
    ("experiments", "repro.experiments.parallel", "ParallelRunner", ("run_campaign",)),
    ("handoff", "repro.handoff.topology", None, ("run_handoff_scenario",)),
    ("csdp", "repro.csdp.study", None, ("run_csdp_study",)),
    ("congestion", "repro.experiments.congestion", None, ("run_congested_scenario",)),
)

#: Where work that bypasses an entry point is attributed.
INLINED = (
    "Timer.restart, Timer.cancel and Event.cancel, inlined into "
    "WirelessPort._on_tx_complete and WirelessPort.receive_frame: linklayer",
    "Event.cancel called directly by any layer: that layer",
    "DropTailQueue.offer/poll, inlined into WirelessLink.send/_start_next: net either way",
    "the exposure() fast path, inlined into TwoStateChannel.corrupts: channel either way",
    "Simulator.peek/step, inlined into Simulator.run: engine either way",
    "Scenario's base-station plumbing (_bs_wired_arrival, _bs_deliver, "
    "_bs_send_wireless): experiments, the module defining it; under the event "
    "log, _bs_wired_arrival runs inside the log's receiver: metrics",
    "time outside every span (the benchmark's own loop, Scenario construction "
    "on lan-serial): not attributed",
)

#: Per layer: its metrics, and which end-to-end metric they should move
#: on which workload.  BENCHMARK.json's fixed keys leave no room for it.
LAYER_MAP = {
    "engine": {
        "metrics": ["engine.events", "engine.heap_pushes", "engine.cancelled_frac",
                    "engine.events_per_kb", "engine.events_per_s", "engine.self_s"],
        "moves": "wall_s and cpu_s on lan-serial; diluted on fig8-pool",
    },
    "channel": {
        "metrics": ["channel.frames_tested", "channel.fast_path_frac", "channel.self_s"],
        "moves": "cpu_s on lan-serial, where it is 4-5% of the time",
    },
    "net": {
        "metrics": ["net.wireless_frames", "net.frames_corrupted", "net.queue_drops",
                    "net.self_s"],
        "moves": "wall_s on fig8-pool (a 128 B MTU turns one packet into up to "
                 "12 frames) and on lan-serial",
    },
    "linklayer": {
        "metrics": ["linklayer.first_tx", "linklayer.link_retx", "linklayer.ack_timeouts",
                    "linklayer.discards", "linklayer.useful_frac", "linklayer.self_s"],
        "moves": "cpu_s on lan-serial",
    },
    "tcp": {
        "metrics": ["tcp.segments_sent", "tcp.retransmissions", "tcp.timeouts",
                    "tcp.goodput", "tcp.self_s"],
        "moves": "cpu_s on lan-serial (64 KB window)",
    },
    "core": {
        "metrics": ["core.feedback_msgs", "core.self_s"],
        "moves": "wall_s on wan-observed",
    },
    "validate": {
        "metrics": ["validate.self_s", "observe.overhead_frac"],
        "moves": "wall_s on wan-observed; no change predicted on lan-serial",
    },
    "metrics": {
        "metrics": ["metrics.log_events", "metrics.self_s"],
        "moves": "wall_s on wan-observed; no change predicted on lan-serial",
    },
    "experiments": {
        "metrics": ["experiments.campaigns", "experiments.units",
                    "experiments.worker_busy_frac", "experiments.dispatch_s_per_unit",
                    "experiments.cache_write_s", "experiments.self_s"],
        "moves": "wall_s and setup_s on fig8-pool; no change predicted on "
                 "lan-serial, which bypasses the pool",
    },
    "handoff": {"metrics": ["handoff.wall_s"], "moves": "wall_s on studies-mix"},
    "csdp": {"metrics": ["csdp.wall_s"], "moves": "wall_s on studies-mix"},
    "congestion": {"metrics": ["congestion.wall_s"], "moves": "wall_s on studies-mix"},
}


def module_layer(module: str) -> int:
    """The layer of a module (``other`` outside the package)."""
    for prefix, name in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return LAYER[name]
    return LAYER["other"]


def _resolve(module: str, owner):
    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


class Patches:
    """Attribute replacements on classes and modules, undone in reverse."""

    def __init__(self) -> None:
        self._undo: list = []

    def replace(self, owner, name: str, make: Callable) -> None:
        """Set ``owner.name`` to ``make(current value)``."""
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        """Put every replaced attribute back."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


#: Counts kept per unit.
COUNTS = (
    "engine.events",
    "engine.heap_pushes",
    "channel.frames_tested",
    "channel.fast_path_hits",
    "channel.fast_path_misses",
    "net.wireless_frames",
    "net.frames_corrupted",
    "net.queue_drops",
    "linklayer.first_tx",
    "linklayer.link_retx",
    "linklayer.ack_timeouts",
    "linklayer.discards",
    "tcp.segments_sent",
    "tcp.retransmissions",
    "tcp.timeouts",
    "tcp.bytes_sent_wire",
    "tcp.useful_wire_bytes",
    "tcp.useful_payload_bytes",
    "core.feedback_msgs",
    "metrics.log_events",
)

#: (kind, module, class): the components whose stats are read.
COUNTED = (
    ("sim", "repro.engine.simulator", "Simulator"),
    ("channel", "repro.channel.twostate", "TwoStateChannel"),
    ("wireless", "repro.net.wireless", "WirelessLink"),
    ("wired", "repro.net.link", "WiredLink"),
    ("port", "repro.linklayer.port", "WirelessPort"),
    ("sender", "repro.tcp.tahoe", "TahoeSender"),
    ("sink", "repro.tcp.sink", "TcpSink"),
    ("ebsn", "repro.core.ebsn", "EbsnGenerator"),
    ("quench", "repro.core.quench", "QuenchGenerator"),
    ("snoop", "repro.core.snoop", "SnoopAgent"),
)


def _registering(init: Callable, live: list) -> Callable:
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.append(self)

    return __init__


def _keeping(attach: Callable, logs: list) -> Callable:
    def attach_and_keep(scenario):
        log = attach(scenario)
        logs.append(log)
        return log

    return attach_and_keep


class Counter:
    """Per-unit counts read from the components' own stats objects."""

    def __init__(self) -> None:
        #: One record per finished ``Simulator.run``.
        self.units: List[Dict[str, int]] = []
        self._live: Dict[str, list] = {kind: [] for kind, _, _ in COUNTED}
        self._live["log"] = []

    def install(self, patches: Patches) -> None:
        """Register new components; count them when their run returns."""
        for kind, module, owner in COUNTED:
            patches.replace(
                _resolve(module, owner), "__init__",
                lambda init, live=self._live[kind]: _registering(init, live),
            )
        patches.replace(
            _resolve("repro.metrics.eventlog", None), "attach_to_scenario",
            lambda attach: _keeping(attach, self._live["log"]),
        )
        patches.replace(
            _resolve("repro.engine.simulator", "Simulator"), "run", self._counting
        )

    def _counting(self, run: Callable) -> Callable:
        def run_then_count(sim, *args, **kwargs):
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.harvest()

        return run_then_count

    def harvest(self) -> None:
        """Read, then release, every component built since the last unit."""
        live = self._live
        count = dict.fromkeys(COUNTS, 0)
        for sim in live["sim"]:
            count["engine.events"] += sim.events_executed
            count["engine.heap_pushes"] += sim.heap_pushes
        for channel in live["channel"]:
            count["channel.frames_tested"] += channel.frames_tested
            count["channel.fast_path_hits"] += channel.fast_path_hits
            count["channel.fast_path_misses"] += channel.fast_path_misses
        for link in live["wireless"]:
            count["net.wireless_frames"] += link.stats.offered
            count["net.frames_corrupted"] += link.stats.corrupted
            count["net.queue_drops"] += (
                link.queue.stats.dropped + link.ack_queue.stats.dropped
            )
        for link in live["wired"]:
            count["net.queue_drops"] += link.queue.stats.dropped
        for port in live["port"]:
            count["linklayer.first_tx"] += port.stats.first_transmissions
            count["linklayer.link_retx"] += port.stats.link_retransmissions
            count["linklayer.ack_timeouts"] += port.stats.ack_timeouts
            count["linklayer.discards"] += port.stats.frames_discarded
        for sender in live["sender"]:
            count["tcp.segments_sent"] += sender.stats.segments_sent
            count["tcp.retransmissions"] += sender.stats.retransmissions
            count["tcp.timeouts"] += sender.stats.timeouts
            count["tcp.bytes_sent_wire"] += sender.stats.bytes_sent_wire
        for sink in live["sink"]:
            count["tcp.useful_wire_bytes"] += sink.stats.useful_wire_bytes
            count["tcp.useful_payload_bytes"] += sink.stats.useful_payload_bytes
        count["core.feedback_msgs"] = (
            sum(g.ebsn_sent for g in live["ebsn"])
            + sum(g.quench_sent for g in live["quench"])
            + sum(a.local_retransmissions for a in live["snoop"])
        )
        count["metrics.log_events"] = sum(len(log) for log in live["log"])
        self.units.append(count)
        for objects in live.values():
            objects.clear()


def _observable(scenario) -> list:
    """The objects of a built scenario that its observers patch."""
    parts = [
        getattr(scenario, name, None)
        for name in ("sim", "sender", "sink", "bs_port", "mh_port", "channel",
                     "wired_down", "wired_up", "downlink", "uplink")
    ]
    if getattr(scenario, "sender", None) is not None:
        parts.append(scenario.sender.rtx_timer)
    for name in ("fh", "bs", "mh"):
        node = getattr(scenario, name, None)
        if node is not None:
            parts.extend(vars(node.routing).get("_routes", {}).values())
    unique = {
        id(part): part
        for part in parts
        if part is not None
        and hasattr(part, "__dict__")
        and not isinstance(part, (types.FunctionType, types.MethodType))
    }
    return list(unique.values())


#: Spans kept per unit, the first ones it opens.  A unit opens up to
#: ~100k (lan-serial) and a traced run ~5M in all, too many to keep or
#: write; self times count every span, kept or not.
SPANS_PER_UNIT = 1000


class Tracer:
    """Spans and per-layer self times of one traced pass."""

    def __init__(self) -> None:
        n = len(LAYERS)
        #: Install this before the tracer; its units number the spans.
        self.counter = Counter()
        #: Seconds in each layer's spans, less the time in their children.
        self.self_s = [0.0] * n
        #: Seconds in each layer's outermost spans, children included.
        self.inclusive_s = [0.0] * n
        self.spans_opened = 0
        self._unit = -1
        self._unit_spans = 0
        self._stack: list = []
        self._depth = [0] * n
        self._layer_of_code: dict = {}
        self._timer_fire = None
        self._t0 = time.perf_counter()
        # The kept spans, column by column.
        self.layer = array("b")
        self.parent = array("l")
        self.unit = array("l")
        self.start = array("d")
        self.end = array("d")

    def install(self, patches: Patches) -> None:
        """Open spans at every entry point (after ``self.counter.install``)."""
        self._timer_fire = vars(_resolve("repro.engine.timer", "Timer"))["_fire"]
        for layer, module, owner, attributes in ENTRY_POINTS:
            target = _resolve(module, owner)
            for attribute in attributes:
                patches.replace(
                    target, attribute,
                    lambda fn, layer=LAYER[layer]: self.wrap(fn, layer),
                )
        simulator = _resolve("repro.engine.simulator", "Simulator")
        for attribute in ("schedule", "schedule_at"):
            patches.replace(simulator, attribute, self._scheduling)
        patches.replace(
            _resolve("repro.metrics.eventlog", None), "attach_to_scenario",
            lambda attach: self._observing(attach, LAYER["metrics"]),
        )
        patches.replace(
            _resolve("repro.validate.engine", "Validator"), "attach",
            lambda attach: self._observing(attach, LAYER["validate"]),
        )

    def wrap(self, fn: Callable, layer: int) -> Callable:
        """``fn``, recording a span of ``layer`` unless already inside one."""
        stack = self._stack
        depth = self._depth
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        starts = self.start
        ends = self.end
        open_span = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            # [layer, seconds in child spans, span id]
            frame = [layer, 0.0, open_span(layer)]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                duration = end - start
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not depth[layer]:
                    inclusive_s[layer] += duration
                if frame[2] >= 0:
                    starts[frame[2]] = start
                    ends[frame[2]] = end

        traced.perfbench_layer = layer
        traced.__wrapped__ = fn
        return traced

    def _open(self, layer: int) -> int:
        """Keep a new span's layer, parent and unit; -1 past its unit's cap.

        A kept span's parent is -1 at the root or if the parent was not kept.
        """
        self.spans_opened += 1
        unit = len(self.counter.units)
        if unit != self._unit:
            self._unit, self._unit_spans = unit, 0
        if self._unit_spans >= SPANS_PER_UNIT:
            return -1
        self._unit_spans += 1
        span = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1][2] if self._stack else -1)
        self.unit.append(unit)
        self.start.append(0.0)
        self.end.append(0.0)
        return span

    def layer_of(self, callback: Callable) -> int:
        """The layer of the module that defines ``callback``."""
        func = getattr(callback, "__func__", callback)
        if func is self._timer_fire:
            # A timer's expiry belongs to whoever armed the timer.
            inner = callback.__self__._callback
            layer = getattr(inner, "perfbench_layer", None)
            if layer is not None:
                return layer
            func = getattr(inner, "__func__", inner)
        code = getattr(func, "__code__", None)
        layer = self._layer_of_code.get(code) if code is not None else None
        if layer is None:
            layer = module_layer(getattr(func, "__module__", None) or "")
            if code is not None:
                self._layer_of_code[code] = layer
        return layer

    def _scheduling(self, schedule: Callable) -> Callable:
        """``Simulator.schedule``/``schedule_at``, wrapping each callback."""
        layer_of = self.layer_of
        wrap = self.wrap

        def scheduling(sim, when, callback, *args):
            if getattr(callback, "perfbench_layer", None) is None:
                callback = wrap(callback, layer_of(callback))
            return schedule(sim, when, callback, *args)

        return self.wrap(scheduling, LAYER["engine"])

    def _observing(self, attach: Callable, layer: int) -> Callable:
        """``attach`` in a span; the callbacks it installs get spans too."""
        traced_attach = self.wrap(attach, layer)
        wrap = self.wrap

        def observed(*args):
            objects = _observable(args[-1])
            before = [dict(vars(obj)) for obj in objects]
            result = traced_attach(*args)
            for obj, old in zip(objects, before):
                for name, value in list(vars(obj).items()):
                    if (
                        callable(value)
                        and old.get(name) is not value
                        and getattr(value, "perfbench_layer", None) is None
                    ):
                        setattr(obj, name, wrap(value, layer))
            return result

        return observed

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated text; returns how many."""
        t0 = self._t0
        with open(path, "w") as out:
            out.write("span\tparent\tunit\tlayer\tstart_s\tend_s\n")
            for i in range(len(self.layer)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.unit[i]}\t{LAYERS[self.layer[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
        return len(self.layer)
