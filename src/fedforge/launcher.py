"""Spawn one OS process per node and supervise the run.

Every node runs the identical program (``python -m fedforge node ...``);
behaviour differs only through the ``--id`` argument.  The launcher is
also the safety net for the engine's deliberate lack of protocol
timeouts: a watchdog covers the whole run and kills every child when it
expires.  Child output is echoed line by line with a ``[node N]`` prefix
so interleaved logs stay attributable.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

from .engine import check_run
from .errors import FedforgeError
from .logreg import DEFAULT_SPLIT_SEED
from .transport import DEFAULT_BASE_PORT, NodeConfig
from .values import Frozen, Value, set_fields

ALGORITHMS = ("centralized", "decentralized")
# The engine waits forever by design; the launcher is the safety net.
DEFAULT_WATCHDOG_SECONDS = 120.0


class LauncherError(FedforgeError):
    """A child process could not be spawned."""


class LaunchTimeoutError(LauncherError):
    """The watchdog expired; the message lists nodes still running."""


class LaunchSpec(Frozen):
    """Everything needed to start one federated run as local processes."""

    __slots__ = ("n_nodes", "algorithm", "dataset_path", "srv_id", "iterations", "base_port",
                 "watchdog_seconds", "split_seed", "out_dir")

    def __init__(self, n_nodes: int, algorithm: str, dataset_path: Path, srv_id: int = 0,
                 iterations: int = 1, base_port: int = DEFAULT_BASE_PORT,
                 watchdog_seconds: float = DEFAULT_WATCHDOG_SECONDS,
                 split_seed: int = DEFAULT_SPLIT_SEED, out_dir: Path | None = None):
        set_fields(self, n_nodes, algorithm, dataset_path, srv_id, iterations, base_port,
                   watchdog_seconds, split_seed, out_dir)
        check_run(NodeConfig(self.n_nodes, 0, self.srv_id, self.base_port), self.iterations)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.watchdog_seconds > 0:  # NaN too: a NaN deadline never expires
            raise ValueError(f"watchdog must be positive, got {self.watchdog_seconds}")


class SpawnRecord(Frozen):
    __slots__ = ("node_id", "argv", "pid")

    def __init__(self, node_id: int, argv: tuple[str, ...], pid: int):
        set_fields(self, node_id, argv, pid)


class LaunchResult(Value):
    __slots__ = ("records", "exit_codes")

    def __init__(self, records: list[SpawnRecord], exit_codes: list[int]):
        set_fields(self, records, exit_codes)  # exit codes in node-id order


def node_out_path(out_dir, node_id: int) -> Path:
    """Result-file path convention shared with the node subcommand."""
    return Path(out_dir) / f"node{node_id}.bin"


def _build_node_command(spec: LaunchSpec, node_id: int) -> list[str]:
    cmd = [
        sys.executable, "-m", "fedforge", "node",
        "--nodes", str(spec.n_nodes),
        "--id", str(node_id),
        "--srv-id", str(spec.srv_id),
        "--algo", spec.algorithm,
        "--iters", str(spec.iterations),
        "--base-port", str(spec.base_port),
        "--data", str(spec.dataset_path),
        "--seed", str(spec.split_seed),
    ]
    if spec.out_dir is not None:
        cmd += ["--out", str(node_out_path(spec.out_dir, node_id))]
    return cmd


def _pump_output(node_id: int, stream, echo) -> None:
    prefix = f"[node {node_id}] "
    for line in stream:
        echo(prefix + line.rstrip("\n"))
    stream.close()


def _kill_all(procs: list[subprocess.Popen]) -> None:
    import subprocess  # here, not at the top: cli imports this module, and a node never spawns

    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    grace = time.monotonic() + 2.0
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=max(0.05, grace - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def launch(spec: LaunchSpec, echo=print) -> LaunchResult:
    """Spawn all nodes, wait for them, return spawn records and exit codes.

    ``spec.out_dir`` is created, parents included, before any node starts.
    One watchdog budget covers the whole run; on expiry every child is
    killed and the error names the nodes that were still alive.
    """
    import subprocess

    procs: list[subprocess.Popen] = []
    records: list[SpawnRecord] = []
    readers: list[threading.Thread] = []
    if spec.out_dir is not None:
        Path(spec.out_dir).mkdir(parents=True, exist_ok=True)
    try:
        for node_id in range(spec.n_nodes):
            cmd = _build_node_command(spec, node_id)
            try:
                proc = subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True,
                )
            except OSError as exc:
                raise LauncherError(f"failed to spawn node {node_id}: {exc}") from exc
            procs.append(proc)
            records.append(SpawnRecord(node_id, tuple(cmd), proc.pid))
            reader = threading.Thread(
                target=_pump_output, args=(node_id, proc.stdout, echo), daemon=True
            )
            reader.start()
            readers.append(reader)

        deadline = time.monotonic() + spec.watchdog_seconds
        for proc, reader in zip(procs, readers):
            # A node's exit closes its stdout, which ends its reader, and a
            # join wakes at that moment where Popen.wait would poll.  The
            # poll each second covers a node whose stdout outlives it.
            while reader.is_alive() and proc.poll() is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                reader.join(timeout=min(1.0, remaining))
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                survivors = [i for i, p in enumerate(procs) if p.poll() is None]
                _kill_all(procs)
                raise LaunchTimeoutError(
                    f"watchdog ({spec.watchdog_seconds:g} s) expired; "
                    f"nodes still running: {survivors}"
                ) from None
        return LaunchResult(records, [p.returncode for p in procs])
    finally:
        _kill_all(procs)
        for reader in readers:
            reader.join(timeout=5.0)
