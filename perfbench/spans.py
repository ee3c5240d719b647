"""In-memory spans around calls into fedforge, and the per-layer metrics
computed from them.

The program itself emits no trace, so every span here is recorded by a
wrapper that the benchmark installs around a public fedforge function or a
transport's ``send``/``recv``.  A span is ``[name, start, end, parent, node,
run, attrs]`` with ``time.monotonic()`` stamps; on Linux that clock is
system-wide, so stamps taken in different node processes compare directly.
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time

clock = time.monotonic

FRAME_OVERHEAD = 8  # 4-byte length prefix + kind, phase and 16-bit src
TRAIN_EPOCHS = 300  # cb_cent_client trains with the default TrainConfig


class Tracer:
    """Collects spans of one node process, or of every thread of a sim run.

    The parent of a span is the innermost open span of the same thread, so
    the simulator's node threads keep separate span trees.
    """

    def __init__(self, node: int | None = None, run: int = 0):
        self.spans: list[list] = []
        self.run = run
        self._node = node
        self._local = threading.local()

    def set_node(self, node: int) -> None:
        """Attribute the spans of the calling thread to ``node``."""
        self._local.node = node

    def wrap(self, fn, name: str, label: str | None = None, attrs=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``label`` names the wrapped implementation (``attrs["fn"]``);
        ``attrs(args, result)`` may add fields computed from the call.
        """
        spans, local, run, default_node = self.spans, self._local, self.run, self._node

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            rec = [name, clock(), 0.0, parent, getattr(local, "node", default_node), run, None]
            spans.append(rec)
            local.current = rec
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                local.current = parent
            extra = {} if label is None else {"fn": label}
            if attrs is not None:
                extra.update(attrs(args, result))
            rec[6] = extra or None
            return result

        return traced

    def instrument_transport(self, transport) -> None:
        """Shadow ``send``/``recv`` of one transport instance with traced ones."""
        transport.send = self.wrap(
            transport.send, "transport.send",
            attrs=lambda a, r: {"dst": a[0], "bytes": FRAME_OVERHEAD + len(a[1].payload)})
        transport.recv = self.wrap(
            transport.recv, "transport.recv", attrs=lambda a, r: {"src": r.src})

    def export(self) -> list[list]:
        """Spans as JSON-ready rows, with the parent given as a row index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [[name, start, end, None if parent is None else index[id(parent)],
                 node, run, attrs]
                for name, start, end, parent, node, run, attrs in self.spans]


def logreg_client(a, r):
    """Span attrs of a logreg client callback: rows trained in the call."""
    return {"rows": len(a[1].X)}


def offset(rows: list[list], base: int) -> list[list]:
    """Re-index exported rows that will be appended after ``base`` others."""
    return [[*row[:3], None if row[3] is None else row[3] + base, *row[4:]] for row in rows]


def write_spans(path, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _dur(row) -> float:
    return row[2] - row[1]


def layer_metrics(rows: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run from its exported span rows.

    Times are totals over all nodes of the run unless the name says
    otherwise; ``transport.barrier_ms.*`` and ``logreg.prepare_ms`` are the
    slowest and fastest node's, and the slowest node's, respectively.
    """
    by_name: dict[str, list] = {}
    for row in rows:
        by_name.setdefault(row[0], []).append(row)
    out: dict[str, float] = {}

    barrier = [_dur(r) * 1e3 for r in by_name.get("transport.start_node", [])]
    out["transport.barrier_ms.max"] = max(barrier, default=0.0)
    out["transport.barrier_ms.min"] = min(barrier, default=0.0)

    prepare: dict[object, float] = {}
    for name in ("logreg.load_sna_csv", "logreg.split", "logreg.partition_horizontal"):
        for r in by_name.get(name, []):
            prepare[r[4]] = prepare.get(r[4], 0.0) + _dur(r) * 1e3
    out["logreg.prepare_ms"] = max(prepare.values(), default=0.0)

    callbacks = by_name.get("client_fn", []) + by_name.get("server_fn", [])
    for role in ("client_fn", "server_fn"):
        mine = [r for r in by_name.get(role, []) if r[6]["fn"].startswith("logreg.")]
        out[f"logreg.{role}_ms"] = sum(_dur(r) for r in mine) * 1e3
        out[f"logreg.{role}_calls"] = float(len(mine))
    trained = [r for r in by_name.get("client_fn", []) if "rows" in (r[6] or {})]
    busy = sum(_dur(r) for r in trained)
    out["logreg.row_epochs_per_s"] = (
        sum(r[6]["rows"] for r in trained) * TRAIN_EPOCHS / busy if busy else 0.0)
    out["logreg.evaluate_ms"] = sum(_dur(r) for r in by_name.get("logreg.evaluate", [])) * 1e3

    out["transport.bytes_sent"] = float(sum(r[6]["bytes"] for r in by_name.get("transport.send", [])))
    recvs = by_name.get("transport.recv", [])
    for src in range(3):
        out[f"transport.recv_wait_ms.from{src}"] = sum(
            _dur(r) for r in recvs if r[6]["src"] == src) * 1e3

    engine = by_name.get("engine.fl_centralized", []) + by_name.get("engine.fl_decentralized", [])
    index = {id(r): i for i, r in enumerate(rows)}
    engine_ids = {index[id(r)] for r in engine}
    child_time = sum(_dur(r) for r in callbacks + by_name.get("transport.send", []) + recvs
                     if r[3] in engine_ids)
    out["engine.rounds_ms"] = sum(_dur(r) for r in engine) * 1e3
    out["engine.self_ms"] = out["engine.rounds_ms"] - child_time * 1e3
    return out


def send_metrics(rows: list[list]) -> dict[str, float]:
    """Per-call ``send`` latency over all traced runs pooled: the median and
    the highest order statistic with at least ten samples beyond it (the
    maximum when there are ten or fewer), with the sample count."""
    sends = sorted(_dur(r) * 1e6 for r in rows if r[0] == "transport.send")
    return {
        "transport.send_us.p50": sends[len(sends) // 2] if sends else 0.0,
        "transport.send_us.tail": sends[len(sends) - 11 if len(sends) > 10 else -1] if sends else 0.0,
        "transport.send_us.count": float(len(sends)),
    }
