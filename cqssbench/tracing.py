"""Layer spans for the cqss benchmark, recorded from outside the library.

The tracer replaces public entry points of ``cqss`` with timing wrappers:
module functions wherever a ``cqss`` module holds them by name (``protocol``
imports ``eve_tap`` and ``harness`` imports ``fidelity`` directly), and
methods at class level (``QuantumRegister``, ``RandomSource``,
``ProtocolRun``).  Nothing under ``src/`` changes.

Each call records one span: entry, start, end, parent span and op id.  Spans
stay in compact in-memory arrays until the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are strictly
nested because the benchmark has one client thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

# Op id of spans recorded while the workload is set up.
SETUP_OP = -1


@dataclass(frozen=True)
class Entry:
    """One traced entry point: ``<module>.<entry>`` and what it wraps.

    ``owner`` is a module of ``cqss`` or a class inside one; ``per_setup``
    entries run during set-up, the others inside ops.
    """

    name: str
    owner: str
    attrs: tuple[str, ...]
    per_setup: bool = False

    @property
    def on_register(self) -> bool:
        return self.owner == "qubits.QuantumRegister"


ENTRIES = (
    Entry("qubits.alloc", "qubits.QuantumRegister",
          ("alloc_state", "alloc_bell_pair", "alloc_qubit")),
    Entry("qubits.bell_measure", "qubits.QuantumRegister", ("bell_measure",)),
    Entry("qubits.project_bell", "qubits.QuantumRegister", ("project_bell",)),
    Entry("qubits.apply_pauli", "qubits.QuantumRegister", ("apply_pauli",)),
    Entry("qubits.measure_single", "qubits.QuantumRegister", ("measure_single",)),
    Entry("qubits.reduced_density", "qubits.QuantumRegister", ("reduced_density",)),
    Entry("qubits.state_vector", "qubits.QuantumRegister", ("state_vector",)),
    Entry("qubits.random_source", "qubits.RandomSource", ("__init__",)),
    Entry("qubits.compare", "qubits",
          ("fidelity", "trace_distance", "sealed_mixture")),
    Entry("protocol.setup", "protocol", ("setup",)),
    Entry("protocol.distribute", "protocol.ProtocolRun", ("distribute_all",)),
    Entry("protocol.transport", "protocol.ProtocolRun", ("transport_all",)),
    Entry("protocol.reconstruct", "protocol.ProtocolRun", ("reconstruct",)),
    Entry("protocol.withheld_state", "protocol.ProtocolRun", ("withheld_state",)),
    Entry("protocol.resource_report", "protocol.ProtocolRun", ("resource_report",)),
    Entry("security.eve_tap", "security", ("eve_tap",)),
    Entry("security.verify_decoys", "security", ("verify_decoys",)),
    Entry("security.no_information_audit", "security", ("no_information_audit",)),
    Entry("harness.build_run", "harness", ("build_run",)),
    Entry("harness.run_trial", "harness", ("run_trial",)),
    Entry("scenario.load", "scenario", ("parse_scenario_text",), per_setup=True),
)

# Per-layer metrics beyond <entry>.calls / <entry>.self_ms, with their units.
EXTRA_METRICS = {
    "qubits.live_qubits_peak": "qubits",
    "qubits.live_qubits_predicted": "qubits",
    "qubits.live_qubits_excess": "qubits",
    "qubits.state_bytes_computed": "B/op",
    "protocol.withheld_state.branches": "branches/op",
    "protocol.reconstruct.redundant_share_state": "ratio",
    "trace.op_ms_p50": "ms",
    "trace.untraced_op_ms_p50": "ms",
    "trace.overhead_ms": "ms",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for entry in ENTRIES:
        units[f"{entry.name}.calls"] = "count" if entry.per_setup else "calls/op"
        units[f"{entry.name}.self_ms"] = "ms" if entry.per_setup else "ms/op"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Wraps the entry points of an imported ``cqss`` and records spans.

    ``install`` and ``uninstall`` swap the wrappers in and out, so traced
    and untraced ops can alternate inside one run.
    """

    def __init__(self, cqss) -> None:
        self._cqss = cqss
        self.op = SETUP_OP
        self._entry = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack = [-1]
        self.live_peak = 0
        self.op_live_peak = 0
        self.state_bytes = 0
        self.branches = 0
        self.recovered = 0
        self.redundant_share_state = 0
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cqss" or name.startswith("cqss.")]
        for entry_id, entry in enumerate(ENTRIES):
            owner = cqss
            for part in entry.owner.split("."):
                owner = getattr(owner, part)
            for attr in entry.attrs:
                original = owner.__dict__[attr]
                wrapper = self._wrap(entry_id, entry, original)
                if isinstance(owner, type):
                    self._patches.append((owner, attr, wrapper, original))
                    continue
                for module in modules:
                    for name, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, name, wrapper, original))

    def install(self) -> None:
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, _, original in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, entry_id: int, entry: Entry, fn):
        clock = time.perf_counter
        entries, starts, ends = self._entry, self._start, self._end
        parents, ops, stack = self._parent, self._op, self._stack
        after = self._counter(entry)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            entries.append(entry_id)
            parents.append(stack[-1])
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            before = args[0].num_qubits if entry.on_register else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(before, args, kwargs, result)
            return result

        return traced

    def _counter(self, entry: Entry):
        """The count a call of ``entry`` adds to, if any."""
        if entry.on_register:
            def count_width(before, args, kwargs, result):
                live = args[0].num_qubits
                self.live_peak = max(self.live_peak, live)
                self.op_live_peak = max(self.op_live_peak, live)
                self.state_bytes += 16 * 2 ** max(before, live)
            return count_width
        if entry.name == "protocol.withheld_state":
            def count_branches(before, args, kwargs, result):
                withheld = args[1] if len(args) > 1 else kwargs["withheld_indices"]
                self.branches += 4 ** len(set(withheld))
            return count_branches
        if entry.name == "protocol.reconstruct":
            recovered_type = self._cqss.protocol.Recovered

            def count_redundant(before, args, kwargs, result):
                if isinstance(result, recovered_type):
                    self.recovered += 1
                    if (result.state_vector is not None
                            and result.share_state is not None):
                        self.redundant_share_state += 1
            return count_redundant
        return None

    # -- results -------------------------------------------------------------

    def spans(self):
        """Spans as numpy arrays, in call order."""
        import numpy as np

        return {
            "entry": np.frombuffer(self._entry, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "op": np.frombuffer(self._op, dtype=np.int32),
        }

    def write(self, path) -> None:
        """Write every span and the entry names to one ``.npz`` file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array([e.name for e in ENTRIES]), **self.spans())

    def layer_metrics(self, traced_ops: int) -> dict[str, float]:
        """Calls and self time per entry, and the counters.

        Op entries are per traced op; set-up entries are totals over the one
        traced set-up.
        """
        import numpy as np

        s = self.spans()
        duration = s["end"] - s["start"]
        child = np.zeros_like(duration)
        nested = s["parent"] >= 0
        np.add.at(child, s["parent"][nested], duration[nested])
        self_ms = (duration - child) * 1e3
        in_setup = s["op"] == SETUP_OP
        per_op = max(traced_ops, 1)
        out: dict[str, float] = {}
        for entry_id, entry in enumerate(ENTRIES):
            mask = (s["entry"] == entry_id) & (in_setup if entry.per_setup else ~in_setup)
            scale = 1 if entry.per_setup else per_op
            out[f"{entry.name}.calls"] = int(mask.sum()) / scale
            out[f"{entry.name}.self_ms"] = float(self_ms[mask].sum()) / scale
        out["qubits.live_qubits_peak"] = self.live_peak
        out["qubits.state_bytes_computed"] = self.state_bytes / per_op
        out["protocol.withheld_state.branches"] = self.branches / per_op
        out["protocol.reconstruct.redundant_share_state"] = (
            self.redundant_share_state / self.recovered if self.recovered else 0.0
        )
        return out
