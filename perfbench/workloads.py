"""The four workloads.  Each builds its inputs and reference from the workload
seed, sets up its system on demand for ``setup_s``, and performs one run,
untraced or traced, checking the run's payloads against the reference.

All are closed loops: ``run.py`` starts a run only after the previous one
has ended, one run at a time, with at most two processes computing at once
(the benchmark machine has two cores).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from fedforge.logreg import bundled_sna_path
from fedforge.rng import SplitMix64
from fedforge.sim import SeededSchedule, run_nodes, sim_transport
from fedforge.transport import free_base_port

import spans
from cheap import cheap_clique, cheap_inputs
from reference import (
    cheap_reference,
    clique_reference,
    digest,
    split_seed_for,
    star_reference,
)

HERE = Path(__file__).resolve().parent
NODE_PY = str(HERE / "node.py")
WATCHDOG_S = 30.0  # bench-side limit on one run; a run past it counts as failed
LAUNCH_WATCHDOG_S = 20  # the launcher's own watchdog fires first


@dataclass
class Run:
    """Outcome of one run; ``error`` is None when it passed every check."""

    error: str | None = None
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    rounds_per_s: float = 0.0
    payloads: dict[int, bytes] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


@dataclass
class _Proc:
    exit_t: float = 0.0
    code: int | None = None
    usage: object = None


def _spawn_wait(commands, env, log_dir: Path) -> tuple[float, list[_Proc], bool]:
    """Start one process per command factory and wait for all of them.

    Each process gets its own session, so the watchdog can kill a launcher
    together with its nodes.  Every process is reaped through ``wait4`` in
    its own thread, which stamps its exit and keeps its resource usage (its
    own plus that of the children it reaped).  Returns the spawn time, the
    processes and whether the watchdog fired.
    """
    procs: list[subprocess.Popen] = []
    out = [_Proc() for _ in commands]
    fired = threading.Event()

    def kill_all():
        fired.set()
        for p in procs:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def reap(i, pid):
        _, status, usage = os.wait4(pid, 0)
        out[i].exit_t = spans.clock()
        out[i].code = os.waitstatus_to_exitcode(status)
        out[i].usage = usage

    reapers = []
    timer = threading.Timer(WATCHDOG_S, kill_all)
    t0 = spans.clock()
    try:
        for i, command in enumerate(commands):
            with open(log_dir / f"proc{i}.log", "wb") as log:
                proc = subprocess.Popen(command(), stdout=log, stderr=subprocess.STDOUT,
                                        env=env, start_new_session=True)
            procs.append(proc)
            reaper = threading.Thread(target=reap, args=(i, proc.pid), daemon=True)
            reaper.start()
            reapers.append(reaper)
        timer.start()
        for reaper in reapers:
            reaper.join()
    finally:
        timer.cancel()
        if any(r.is_alive() for r in reapers):
            kill_all()
            for reaper in reapers:
                reaper.join()
        for proc, o in zip(procs, out):
            proc.returncode = o.code  # reaped above; keeps Popen from waiting again
    return t0, out, fired.is_set()


def _log_tail(log_dir: Path, i: int) -> str:
    text = (log_dir / f"proc{i}.log").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else "(no output)"


def _records(run_dir: Path, n: int) -> list[dict]:
    return [json.loads((run_dir / f"node{i}.json").read_text()) for i in range(n)]


def _merged_spans(run_dir: Path, n: int, index: int) -> list[list]:
    """All nodes' spans of one run, stamped with the run index."""
    rows: list[list] = []
    for i in range(n):
        rows += spans.offset(json.loads((run_dir / f"node{i}.json.spans").read_text()), len(rows))
    for row in rows:
        row[5] = index
    return rows


def _check_payloads(run: Run, reference: dict[int, bytes]) -> None:
    if run.error is None and run.payloads != reference:
        bad = sorted(i for i in reference if run.payloads.get(i) != reference[i])
        run.error = f"payload digest differs from the reference on nodes {bad}"


def _check_counts(run: Run, records: list[dict], expected: int) -> None:
    """Traced self-check: every round sent and received the protocol's DATA."""
    sent = sum(r["data_sent"] for r in records)
    received = sum(r["data_received"] for r in records)
    run.layer["transport.data_sent"] = float(sent)
    run.layer["transport.data_received"] = float(received)
    if run.error is None and not sent == received == expected:
        run.error = f"DATA sent {sent}, received {received}, protocol needs {expected}"


def _no_sim(layer: dict[str, float]) -> None:
    layer.update({"sim.deliveries": 0.0, "sim.us_per_delivery": 0.0, "sim.recv_ms": 0.0})


class Workload:
    """Shared inputs: the checkout root, workload seed and scratch directory."""

    setup_reps = 5

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("FEDFORGE_BASE_PORT", None)
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"run{self._dirs}"
        path.mkdir()
        return path

    def info(self) -> dict:
        return {"reference_digests": {i: digest(p) for i, p in self.reference.items()}}


class LaunchWorkload(Workload):
    """``fedforge launch`` on the bundled CSV; the traced pass runs the same
    launch through ``node.py launch`` so that every node is wrapped."""

    def __init__(self, root, seed, work, algo: str, n_nodes: int, rounds: int):
        super().__init__(root, seed, work)
        self.algo, self.n, self.rounds = algo, n_nodes, rounds
        self.split_seed = split_seed_for(seed)
        if algo == "centralized":
            self.reference = star_reference(self.split_seed)
            self.data_per_round = 2 * (n_nodes - 1)
        else:
            self.reference = clique_reference(self.split_seed, rounds)
            self.data_per_round = 2 * n_nodes * (n_nodes - 1)

    def info(self) -> dict:
        return {**super().info(), "split_seed": self.split_seed, "rounds": self.rounds}

    def _launch_args(self, out_dir: Path) -> list[str]:
        return ["--nodes", str(self.n), "--algo", self.algo, "--iters", str(self.rounds),
                "--data", str(bundled_sna_path()), "--out-dir", str(out_dir),
                "--base-port", str(free_base_port(self.n)), "--seed", str(self.split_seed),
                "--watchdog", str(LAUNCH_WATCHDOG_S)]

    def setup_once(self) -> float:
        """Spawn of the launch until every node has returned from start_node."""
        run_dir = self.fresh_dir()
        command = [sys.executable, NODE_PY, "launch", "--record-dir", str(run_dir),
                   "--setup-only", "--", *self._launch_args(run_dir)]
        t0, procs, fired = _spawn_wait([lambda: command], self.env, run_dir)
        if fired or procs[0].code != 0:
            raise RuntimeError(f"setup launch failed: {_log_tail(run_dir, 0)}")
        return max(r["t_ready"] for r in _records(run_dir, self.n)) - t0

    def run(self, index: int, traced: bool) -> Run:
        run_dir = self.fresh_dir()
        out_dir = run_dir / "out"
        out_dir.mkdir()
        args = self._launch_args(out_dir)
        if traced:
            command = [sys.executable, NODE_PY, "launch", "--record-dir", str(run_dir),
                       "--trace", "--", *args]
        else:
            command = [sys.executable, "-m", "fedforge", "launch", *args]
        t0, (proc,), fired = _spawn_wait([lambda: command], self.env, run_dir)
        run = Run(run_s=proc.exit_t - t0)
        if fired:
            run.error = f"watchdog expired after {WATCHDOG_S:g} s"
            return run
        if proc.code != 0:
            run.error = f"launch exited {proc.code}: {_log_tail(run_dir, 0)}"
            return run
        run.cpu_s = proc.usage.ru_utime + proc.usage.ru_stime
        run.peak_rss_mb = proc.usage.ru_maxrss / 1024
        run.rounds_per_s = self.rounds / run.run_s
        run.payloads = {i: (out_dir / f"node{i}.bin").read_bytes() for i in range(self.n)}
        _check_payloads(run, self.reference)
        if traced:
            self._layers(run, run_dir, index, proc.exit_t)
        return run

    def _layers(self, run: Run, run_dir: Path, index: int, launch_exit_t: float) -> None:
        records = _records(run_dir, self.n)
        launch = json.loads((run_dir / "launch.json").read_text())
        run.spans = _merged_spans(run_dir, self.n, index)
        run.layer = spans.layer_metrics(run.spans)
        fl_done = {row[4]: row[2] for row in run.spans if row[0].startswith("engine.")}
        exit_t = {int(pid): t for pid, t in launch["exit_t"].items()}
        run.layer["cli.startup_ms"] = max(r["t_imported"] - r["spawn_t"] for r in records) * 1e3
        run.layer["cli.exit_ms"] = max(exit_t[r["pid"]] - fl_done[r["node"]] - r["spans_write_s"]
                                       for r in records) * 1e3
        run.layer["launcher.teardown_ms"] = (launch_exit_t - max(launch["line_t"].values())) * 1e3
        _check_counts(run, records, self.data_per_round * self.rounds)
        _no_sim(run.layer)


class RelayWorkload(Workload):
    """Two bench-owned node processes relaying 16-byte models, no training."""

    n = 2
    rounds = 5000
    setup_reps = 8

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.reference = cheap_reference(seed, self.n, self.rounds)

    def info(self) -> dict:
        return {**super().info(), "rounds": self.rounds}

    def _commands(self, run_dir: Path, flags: list[str]):
        port = str(free_base_port(self.n))

        def command(i):
            return lambda: [sys.executable, NODE_PY, "relay", "--n", str(self.n),
                            "--node-id", str(i), "--base-port", port,
                            "--rounds", str(self.rounds), "--seed", str(self.seed),
                            "--record", str(run_dir / f"node{i}.json"),
                            "--spawn-t", repr(spans.clock()), *flags]

        return [command(i) for i in range(self.n)]

    def _failed(self, run_dir: Path, procs, fired) -> str | None:
        if fired:
            return f"watchdog expired after {WATCHDOG_S:g} s"
        for i, p in enumerate(procs):
            if p.code != 0:
                return f"node {i} exited {p.code}: {_log_tail(run_dir, i)}"
        return None

    def setup_once(self) -> float:
        """Spawn of the first node until both have returned from start_node."""
        run_dir = self.fresh_dir()
        t0, procs, fired = _spawn_wait(self._commands(run_dir, ["--setup-only"]),
                                       self.env, run_dir)
        error = self._failed(run_dir, procs, fired)
        if error:
            raise RuntimeError(f"relay setup failed: {error}")
        return max(r["t_ready"] for r in _records(run_dir, self.n)) - t0

    def run(self, index: int, traced: bool) -> Run:
        run_dir = self.fresh_dir()
        t0, procs, fired = _spawn_wait(
            self._commands(run_dir, ["--trace"] if traced else []), self.env, run_dir)
        run = Run(run_s=max(p.exit_t for p in procs) - t0,
                  error=self._failed(run_dir, procs, fired))
        if run.error:
            return run
        records = _records(run_dir, self.n)
        ready = max(r["t_ready"] for r in records)
        run.rounds_per_s = self.rounds / (max(r["t_done"] for r in records) - ready)
        run.cpu_s = sum(p.usage.ru_utime + p.usage.ru_stime for p in procs)
        run.peak_rss_mb = max(p.usage.ru_maxrss for p in procs) / 1024
        run.payloads = {r["node"]: bytes.fromhex(r["payload"]) for r in records}
        _check_payloads(run, self.reference)
        if traced:
            run.spans = _merged_spans(run_dir, self.n, index)
            run.layer = spans.layer_metrics(run.spans)
            exit_t = {r["node"]: p.exit_t for r, p in zip(records, procs)}
            run.layer["cli.startup_ms"] = max(r["t_imported"] - r["spawn_t"] for r in records) * 1e3
            run.layer["cli.exit_ms"] = max(exit_t[r["node"]] - r["t_done"] - r["spans_write_s"]
                                           for r in records) * 1e3
            run.layer["launcher.teardown_ms"] = 0.0
            _check_counts(run, records, 2 * self.n * (self.n - 1) * self.rounds)
            _no_sim(run.layer)
        return run


class SimWorkload(Workload):
    """Three in-process simulated nodes under a seeded delivery schedule.

    Run k uses its own schedule seed, drawn from the workload seed, so a
    workload's figures are a median over many schedules, not one."""

    n = 3
    rounds = 1000
    setup_reps = 50

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.reference = cheap_reference(seed, self.n, self.rounds)
        self.inits, self.consts = cheap_inputs(seed, self.n)

    def info(self) -> dict:
        return {**super().info(), "rounds": self.rounds}

    def _schedule(self, index: int) -> SeededSchedule:
        return SeededSchedule(SplitMix64(self.seed * 1_000_003 + index).next_u64())

    def setup_once(self) -> float:
        """Creating the simulated mesh and starting and joining its node threads."""
        t0 = spans.clock()
        run_nodes(sim_transport(self.n, self._schedule(0)), lambda handle: None)
        return spans.clock() - t0

    def run(self, index: int, traced: bool) -> Run:
        handles = sim_transport(self.n, self._schedule(index))
        tracer = spans.Tracer(run=index) if traced else None
        callbacks, run_rounds = cheap_clique(tracer)
        if tracer is not None:
            for handle in handles:
                tracer.instrument_transport(handle)
        done: dict[int, float] = {}
        results: list = []
        errors: list[Exception] = []

        def node(handle):
            me = handle.config.node_id
            if tracer is not None:
                tracer.set_node(me)
            final = run_rounds(handle, callbacks, self.inits[me], self.consts[me],
                               iterations=self.rounds)
            done[me] = spans.clock()
            return final

        def body():
            try:
                results.extend(run_nodes(handles, node))
            except Exception as exc:  # noqa: BLE001 - becomes this run's failure
                errors.append(exc)

        cpu0 = time.process_time()
        t0 = spans.clock()
        worker = threading.Thread(target=body, daemon=True)
        worker.start()
        worker.join(WATCHDOG_S)
        run = Run(run_s=spans.clock() - t0, cpu_s=time.process_time() - cpu0)
        if worker.is_alive():
            run.error = f"watchdog expired after {WATCHDOG_S:g} s"
            return run
        if errors:
            run.error = f"simulated run raised {errors[0]!r}"
            return run
        run.rounds_per_s = self.rounds / (max(done.values()) - t0)
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.payloads = dict(enumerate(results))
        _check_payloads(run, self.reference)
        if traced:
            run.spans = tracer.export()
            run.layer = spans.layer_metrics(run.spans)
            deliveries = sum(h.stats.data_received for h in handles)
            callback_s = sum(r[2] - r[1] for r in run.spans if r[0] in ("client_fn", "server_fn"))
            run.layer.update({
                "cli.startup_ms": 0.0, "cli.exit_ms": 0.0, "launcher.teardown_ms": 0.0,
                "sim.deliveries": float(deliveries),
                "sim.us_per_delivery": (run.run_s - callback_s) / deliveries * 1e6,
                "sim.recv_ms": run.layer["transport.recv_wait_ms.from0"]
                + run.layer["transport.recv_wait_ms.from1"]
                + run.layer["transport.recv_wait_ms.from2"],
            })
            records = [{"data_sent": h.stats.data_sent, "data_received": h.stats.data_received}
                       for h in handles]
            _check_counts(run, records, 2 * self.n * (self.n - 1) * self.rounds)
        return run


WORKLOADS = {
    "launch_star3": lambda root, seed, work: LaunchWorkload(root, seed, work, "centralized", 3, 1),
    "launch_clique2": lambda root, seed, work: LaunchWorkload(root, seed, work, "decentralized", 2, 15),
    "relay_clique2": RelayWorkload,
    "sim_clique3": SimWorkload,
}
