"""Start one OS process per node and supervise the run.

Every node runs the identical program (``python -m fedforge node ...``);
behaviour differs only through the ``--id`` argument.  On POSIX the
launcher binds every node's listener, then forks each node from itself,
warm with ``fedforge.cli`` imported, before it starts any thread; so no
node dials a peer that does not listen yet.  Elsewhere, or for another
command, it spawns a fresh interpreter per node.  The launcher is also
the safety net for the engine's deliberate lack of protocol timeouts: the
first node that fails stops the others, and a watchdog covers the run.
Child output is echoed line by line with a ``[node N]`` prefix so
interleaved logs stay attributable.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from pathlib import Path

from .engine import check_run
from .errors import FedforgeError
from .logreg import DEFAULT_SPLIT_SEED
from .transport import DEFAULT_BASE_PORT, NodeConfig, bind_listener
from .values import Frozen, Value, set_fields

ALGORITHMS = ("centralized", "decentralized")
# The engine waits forever by design; the launcher is the safety net.
DEFAULT_WATCHDOG_SECONDS = 120.0


class LauncherError(FedforgeError):
    """A child process could not be spawned."""


class LaunchTimeoutError(LauncherError):
    """The watchdog expired before any node failed; the message lists the nodes still running."""


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


def _start_reader(node_id: int, proc, echo) -> threading.Thread:
    reader = threading.Thread(target=_pump_output, args=(node_id, proc.stdout, echo), daemon=True)
    reader.start()
    return reader


class _Forked:
    """What ``launch`` uses of ``subprocess.Popen``, for a forked child."""

    def __init__(self, pid: int, stdout):
        self.pid, self.stdout, self.returncode = pid, stdout, None

    def poll(self) -> int | None:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:  # a signal N reads as -N, as with Popen
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode


def _fork_node(cmd: list[str], node_id: int, listeners: list, procs: list) -> _Forked:
    """Fork a child that runs ``cmd``'s node on ``listeners[node_id]`` and
    writes its output to a pipe.  The child leaves only through ``os._exit``,
    so it never unwinds into the caller's frames or runs atexit handlers."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return _Forked(pid, open(read))
    code = 1
    try:
        os.close(read)
        for listener in listeners[:node_id] + listeners[node_id + 1:]:
            listener.close()
        for proc in procs:  # the pipes of the children forked before this one
            proc.stdout.close()
        os.dup2(write, 1)
        os.dup2(write, 2)
        os.close(write)
        # pytest or an embedding app may have replaced the streams; fds 1 and
        # 2 are one pipe, so one line-buffered stream keeps the lines in order
        sys.stdout = sys.stderr = open(1, "w", buffering=1, closefd=False)
        from .cli import main

        code = main(cmd[3:], listeners[node_id])
    except BaseException:  # as a fresh interpreter would: a traceback and exit 1
        code = 1
        import traceback
        traceback.print_exc()
    finally:
        with contextlib.suppress(OSError, ValueError):  # a line left without its newline
            sys.stdout.flush()
        os._exit(code)


def _wait(procs, readers, until: float, stop=None) -> list:
    """Return every child's code, None for one still running, once all have
    exited, ``stop(codes)`` holds or the monotonic time ``until`` passes.
    It joins the first live reader, which ends at its node's exit, for at most
    50 ms; short polls cover the reaping and a node whose stdout ends first."""
    while True:
        codes = [proc.poll() for proc in procs]
        remaining = until - time.monotonic()
        if None not in codes or (stop and stop(codes)) or remaining <= 0:
            return codes
        live = [reader for reader in readers if reader.is_alive()]
        if live:
            live[0].join(timeout=min(0.05, remaining))
        else:
            time.sleep(min(0.002, remaining))


def _kill_all(procs, readers) -> None:
    """Terminate every child still running, and kill those alive 2 s later."""
    import signal  # here, not at the top: every node imports this module

    kill = getattr(signal, "SIGKILL", signal.SIGTERM)  # none on Windows
    for sig, grace in ((signal.SIGTERM, 2.0), (kill, float("inf"))):
        for proc in procs:
            if proc.poll() is None:
                os.kill(proc.pid, sig)
        _wait(procs, readers, time.monotonic() + grace)


def launch(spec: LaunchSpec, echo=print) -> LaunchResult:
    """Start all nodes, wait for them, return spawn records and exit codes.

    ``spec.out_dir`` is created, parents included, before any node starts.
    The nodes are forked if ``os.fork`` exists, no other thread is alive and
    every command is fedforge's own node command.  Then every listener is
    bound first, so a taken port raises before any node starts.  Any other
    command is spawned as given.  The first node that exits non-zero or by a
    signal stops the rest, and one echoed line names the failed and stopped.
    If none has failed by the watchdog, the error names those still running.
    """
    import subprocess

    commands = [_build_node_command(spec, i) for i in range(spec.n_nodes)]
    fork = hasattr(os, "fork") and threading.active_count() == 1 and all(
        cmd[:4] == [sys.executable, "-m", "fedforge", "node"] for cmd in commands)
    procs: list = []
    records: list[SpawnRecord] = []
    readers: list[threading.Thread] = []
    listeners: list = []
    if spec.out_dir is not None:
        Path(spec.out_dir).mkdir(parents=True, exist_ok=True)
    try:
        if fork:
            for node_id in range(spec.n_nodes):
                listeners.append(bind_listener(
                    NodeConfig(spec.n_nodes, node_id, spec.srv_id, spec.base_port)))
            sys.stdout.flush()
            sys.stderr.flush()
        for node_id, cmd in enumerate(commands):
            try:
                proc = _fork_node(cmd, node_id, listeners, procs) if fork else subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            except OSError as exc:
                raise LauncherError(f"failed to spawn node {node_id}: {exc}") from exc
            procs.append(proc)
            records.append(SpawnRecord(node_id, tuple(cmd), proc.pid))
            if not fork:  # at once: readers started after every spawn made nodes redial more
                readers.append(_start_reader(node_id, proc, echo))
        for listener in listeners:
            listener.close()
        if fork:  # a reader is a thread, and no thread may be alive at a fork
            readers = [_start_reader(node_id, proc, echo) for node_id, proc in enumerate(procs)]

        codes = _wait(procs, readers, time.monotonic() + spec.watchdog_seconds, stop=any)
    finally:
        for listener in listeners:
            listener.close()
        _kill_all(procs, readers)
        for reader in readers:
            reader.join(timeout=5.0)
    stopped = [i for i, c in enumerate(codes) if c is None]
    if any(codes):
        failed = [f"node {i} (exit {c})" if c > 0 else f"node {i} (signal {-c})"
                  for i, c in enumerate(codes) if c]
        echo(f"fedforge: {', '.join(failed)} failed; stopped nodes {stopped}")
    elif stopped:
        raise LaunchTimeoutError(f"watchdog ({spec.watchdog_seconds:g} s) expired; "
                                 f"nodes still running: {stopped}")
    return LaunchResult(records, [p.returncode for p in procs])
