"""Span tracing from outside the program: wrap the public entry of each layer.

:class:`Tracer` replaces a chosen set of functions and methods with wrappers
that record a span per call -- name, start, end and parent -- and keeps, per
layer, the call count, the summed span time and the summed *self* time (the
span minus the time its child spans cover).  Aggregates cover every call;
the first :data:`KEPT_SPANS` spans are also kept verbatim and written out by
:meth:`Tracer.dump` when the run ends.

The hooks are data (:data:`HOOKS`): a layer name and the ``module:qualname``
of each entry point.  An entry point that no longer exists is skipped and
listed in :attr:`Tracer.missing`, so the tracer keeps working while the
program is refactored.  Module-level functions are rebound in every loaded
``repro`` module that imported them by name, because ``from x import f``
copies the reference.  The server side installs the same hooks through
``perfbench/traced_serve.py``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

#: Spans kept verbatim (the aggregates count every span regardless).
KEPT_SPANS = 20_000

#: layer -> entry points, as ``module:Qualified.name``.  The kernel layer is
#: resolved at install time to whichever GF(256) kernel class is selected.
HOOKS: dict[str, tuple[str, ...]] = {
    "sim.dispatch": ("repro.sim.engine:Simulator.run",),
    "runner.build": ("repro.experiments.runner:build_environment",),
    "network.build": (
        "repro.network.topology:FatTreeTopology.__init__",
        "repro.network.network:Network.__init__",
    ),
    "network.switch": ("repro.network.switch:Switch.receive",),
    "network.host": ("repro.network.host:Host.send", "repro.network.host:Host.receive"),
    "network.link": ("repro.network.link:Port.send", "repro.network.link:Link.carry"),
    "network.reroute": ("repro.network.network:Network.recompute_routes",),
    "protocol.sender": (
        "repro.protocol.sender:SenderCore.start",
        "repro.protocol.sender:SenderCore.on_pull",
        "repro.protocol.sender:SenderCore.on_done",
        "repro.protocol.sender:SenderCore.on_timer",
    ),
    "protocol.receiver": (
        "repro.protocol.receiver:ReceiverCore.on_symbol",
        "repro.protocol.receiver:ReceiverCore.on_timer",
        "repro.protocol.receiver:ReceiverCore.build_pull",
        "repro.protocol.receiver:ReceiverCore.start_fetch",
    ),
    "rq.encode": (
        "repro.rq.block:ObjectEncoder.symbol_block",
        "repro.rq.block:ObjectEncoder.symbol",
    ),
    "rq.decode": (
        "repro.rq.block:ObjectDecoder.add_symbol",
        "repro.rq.block:ObjectDecoder.decode",
    ),
    "rq.solve": ("repro.rq.solver:solve",),
    "rq.kernel": ("<kernel>:matmul", "<kernel>:matvec", "<kernel>:scale_rows"),
    "net.wire": ("repro.net.wire:encode_frame", "repro.net.wire:decode_frame"),
}

#: Modules imported before installing, so by-name imports can be rebound.
_PRELOAD = (
    "repro.experiments.runner",
    "repro.experiments.parallel",
    "repro.rq.backend",
    "repro.rq.plan",
    "repro.net.client",
    "repro.net.server",
    "repro.net.driver",
)


class _Stats:
    __slots__ = ("calls", "total", "self_time", "out_bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.out_bytes = 0


class Tracer:
    """Install span wrappers on :data:`HOOKS`; read per-layer aggregates."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stats] = {layer: _Stats() for layer in HOOKS}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # Installation -------------------------------------------------------------

    def install(self) -> "Tracer":
        for name in _PRELOAD:
            try:
                importlib.import_module(name)
            except ImportError:
                self.missing.append(name)
        for layer, targets in HOOKS.items():
            for target in targets:
                if not self._hook(layer, target):
                    self.missing.append(target)
        return self

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _hook(self, layer: str, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        if module_name == "<kernel>":
            try:
                from repro.rq.kernels import get_kernel
            except ImportError:
                return False
            owner = type(get_kernel(None))
            attr = qualname
        else:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                return False
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
                if owner is None:
                    return False
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            return False
        wrapper = self._wrap(layer, original, count_bytes=(layer == "rq.kernel"))
        self._patch(owner, attr, wrapper)
        if isinstance(owner, type(sys)):
            # Rebind by-name imports of a module-level function.
            for mod_name, module in list(sys.modules.items()):
                if (
                    module is not owner
                    and mod_name.startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, wrapper)
        return True

    def _patch(self, owner, attr: str, wrapper) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn, count_bytes: bool = False):
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0.0, clock()]  # id, child time, start
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if count_bytes:
                    stats.out_bytes += getattr(result, "nbytes", 0)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if len(spans) < KEPT_SPANS:
                    spans.append(
                        (span_id, layer, frame[2], end, parent[0] if parent else None)
                    )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # Results ------------------------------------------------------------------

    def aggregates(self) -> dict[str, dict]:
        return {
            layer: {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
                "out_bytes": s.out_bytes,
            }
            for layer, s in self.stats.items()
        }

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write aggregates, missing hooks and the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            head = {"aggregates": self.aggregates(), "missing": self.missing}
            if extra:
                head.update(extra)
            handle.write(json.dumps(head, sort_keys=True) + "\n")
            for span_id, layer, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": layer, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )


def span_metrics(aggregates: dict) -> dict:
    """``<layer>.self_s`` and ``<layer>.calls`` for every layer, and kernel bytes."""
    out = {}
    for layer, values in aggregates.items():
        out[f"{layer}.self_s"] = values["self_s"]
        out[f"{layer}.calls"] = values["calls"]
    out["rq.kernel.bytes"] = aggregates.get("rq.kernel", {}).get("out_bytes", 0)
    return out


def merge_aggregates(*parts: dict) -> dict[str, dict]:
    """Sum per-layer aggregates from several processes (client + server)."""
    merged: dict[str, dict] = {}
    for part in parts:
        for layer, values in part.items():
            slot = merged.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "out_bytes": 0})
            for key in slot:
                slot[key] += values.get(key, 0)
    return merged


def read_aggregates(path: Path) -> tuple[dict, list]:
    """The aggregates and missing hooks from a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        head = json.loads(handle.readline())
    return head["aggregates"], head.get("missing", [])
