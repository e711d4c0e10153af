"""Timing shims for the traced run, kept entirely on the benchmark's side.

``install()`` wraps the public callables at each layer boundary with a span
recorder; ``uninstall()`` puts the originals back.  Spans (name, start, end,
parent, epoch id) stay in memory - a bounded prefix of them is written as
one Chrome-trace JSON at exit - and per-name aggregates (calls, total time,
self time = span minus children) cover every span.  Nothing under ``src/``
knows about this file.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "install"]

MAX_TRACE_SPANS = 200_000  # written to the Chrome trace; aggregates see all


class Recorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.counters: Dict[str, float] = {}
        # Open spans: [name id, start, time spent in children, span index].
        self.stack: List[list] = []
        # Closed and open spans: [name id, start, end, parent index, epoch].
        self.spans: List[list] = []
        self.epoch = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, name: str, fn: Callable, counter: Optional[str] = None,
             new_epoch: bool = False) -> Callable:
        """``fn`` inside a span; ``counter`` accumulates ``len(result)``."""
        nid = self.name_id(name)
        stack, spans = self.stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        counters = self.counters
        if counter is not None:
            counters.setdefault(counter, 0.0)

        def shim(*args, **kwargs):
            if new_epoch:
                self.epoch += 1
            index = -1
            if len(spans) < MAX_TRACE_SPANS:
                index = len(spans)
                parent = stack[-1][3] if stack else -1
                spans.append([nid, 0.0, 0.0, parent, self.epoch])
            frame = [nid, 0.0, 0.0, index]
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[1]
                calls[nid] += 1
                total[nid] += elapsed
                self_time[nid] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                if index >= 0:
                    spans[index][1] = frame[1]
                    spans[index][2] = end
            if counter is not None:
                counters[counter] += len(result)
            return result

        shim.__wrapped__ = fn
        return shim

    def snapshot(self) -> Dict[str, float]:
        """Cumulative aggregates as one flat dict (for per-phase deltas)."""
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".total"] = self.total[nid]
            out[name + ".self"] = self.self_time[nid]
        return out

    def write_chrome_trace(self, path: str, metadata: Dict[str, object]) -> None:
        """Complete ("X") events on one track; nesting follows from ts/dur."""
        if not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        events = [
            {
                "name": self.names[nid], "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent, "epoch": epoch},
            }
            for nid, start, end, parent, epoch in self.spans
            if end > 0.0
        ]
        metadata = dict(metadata, spans_written=len(events),
                        truncated=len(self.spans) >= MAX_TRACE_SPANS)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "metadata": metadata}, out)


def _shim_table() -> List[Tuple[str, object, str, Optional[str]]]:
    """(span name, owner, attribute, result-length counter)."""
    from repro.core.atomindex import AtomIndex
    from repro.core.planner import Planner
    from repro.core.verifier import OnDeviceVerifier
    from repro.dataplane import DevicePlane
    from repro.serve import Coalescer, DeltaEmitter, StreamSession
    from repro.serve import session as session_module
    from repro.sim import TulkunRunner
    from repro.sim.network import SimNetwork
    from repro.slicing import SliceRegistry
    from repro.telemetry.histogram import LatencyHistogram

    from benchmarks.e2e import targets, workloads

    return [
        ("datasets.build", workloads, "build_dataset", None),
        ("runner.init", TulkunRunner, "__init__", None),
        ("planner.decompose", Planner, "decompose", None),
        ("slicing.add_invariant", SliceRegistry, "add_invariant", None),
        ("runner.burst_update", TulkunRunner, "burst_update", None),
        ("runner.apply_updates", TulkunRunner, "apply_updates", None),
        ("runner.statuses", TulkunRunner, "statuses", None),
        ("runner.fail_links", TulkunRunner, "fail_links", None),
        ("runner.recover_links", TulkunRunner, "recover_links", None),
        ("network.apply_rule_updates", SimNetwork, "apply_rule_updates", None),
        ("network.run", SimNetwork, "run", None),
        ("network.invariant_status", SimNetwork, "invariant_status", None),
        ("dataplane.install_rule", DevicePlane, "install_rule", "dataplane.lec_deltas"),
        ("dataplane.remove_rule", DevicePlane, "remove_rule", "dataplane.lec_deltas"),
        ("verifier.handle_lec_deltas", OnDeviceVerifier, "handle_lec_deltas", None),
        ("verifier.handle_batch", OnDeviceVerifier, "handle_batch", None),
        ("verifier.handle_link_change", OnDeviceVerifier, "handle_link_change", None),
        ("atomindex.atomize", AtomIndex, "atomize_mask", None),
        # The session imported the codec by name: patch the names it calls.
        ("protocol.decode_line", session_module, "decode_line", None),
        ("protocol.decode_request", session_module, "decode_request", None),
        ("protocol.encode", targets, "encode_frame", None),
        ("subscribe.filter_delta", targets, "filter_delta", None),
        ("session.handle_request", StreamSession, "handle_request", None),
        ("session.run_epoch", StreamSession, "run_epoch", None),
        ("coalesce.drain", Coalescer, "drain", None),
        ("deltas.diff", DeltaEmitter, "diff", None),
        ("slicing.touched_by_update", SliceRegistry, "touched_by_update",
         "slicing.touched_by_update.slices"),
        ("slicing.touched_by_link", SliceRegistry, "touched_by_link",
         "slicing.touched_by_link.slices"),
        ("slicing.invariants_of", SliceRegistry, "invariants_of", None),
        ("histogram.record", LatencyHistogram, "record", None),
        # The timed region of a step: the root every layer span hangs from.
        ("step", targets.InProcessTarget, "_timed", None),
        ("step", targets.SessionTarget, "_step", None),
    ]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that undoes it."""
    originals = []
    for name, owner, attr, counter in _shim_table():
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(
            name, original, counter, new_epoch=(name == "step")
        ))

    def uninstall() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return uninstall
