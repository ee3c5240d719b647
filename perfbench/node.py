"""Subprocess entry points of the benchmark.

    node.py launch --record-dir D [--trace | --setup-only] -- LAUNCH-ARGS
        Run ``fedforge launch`` in this process, with every node started as
        ``node.py node`` below instead of ``python -m fedforge node``.
    node.py node --node-id I --record F --spawn-t T [--trace | --setup-only] -- NODE-ARGS
        Run ``fedforge.cli.main(["node", ...])``.  ``--trace`` wraps the names
        the CLI calls and the transport's ``send``/``recv`` in spans;
        ``--setup-only`` stops once ``start_node`` has returned.
    node.py relay --n N --node-id I --base-port P --rounds R --seed S --record F
                  --spawn-t T [--trace | --setup-only]
        The relay workload's node: ``start_node``, then ``fl_decentralized``
        with the aggregation-only callbacks of ``cheap.py``.

Each process writes a JSON record with its time stamps, final payload and
DATA counters to the --record file, and its spans next to it.  ``--spawn-t`` is the parent's ``time.monotonic()``
just before the spawn.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from spans import Tracer, clock, logreg_client  # noqa: E402


class _SetupDone(Exception):
    """Unwinds a --setup-only node once the hello barrier has released.

    It is no FedforgeError or OSError, so ``cli.main`` does not catch it."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="node.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("launch", "node", "relay"):
        p = sub.add_parser(mode)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--trace", action="store_true")
        group.add_argument("--setup-only", action="store_true")
        if mode == "launch":
            p.add_argument("--record-dir", required=True)
        else:
            p.add_argument("--node-id", type=int, required=True)
            p.add_argument("--record", required=True)
            p.add_argument("--spawn-t", type=float, required=True)
        if mode == "relay":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--base-port", type=int, required=True)
            p.add_argument("--rounds", type=int, required=True)
            p.add_argument("--seed", type=int, required=True)
        p.add_argument("rest", nargs="*")
    return parser


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _flags(opts) -> list[str]:
    return ["--trace"] if opts.trace else ["--setup-only"] if opts.setup_only else []


def _traced_start(tracer: Tracer | None, start_node, record: dict, holder: list):
    """``start_node`` that stamps the barrier release and keeps the transport."""

    def start(config, *args, **kwargs):
        transport = start_node(config, *args, **kwargs)
        record["t_ready"] = clock()
        holder.append(transport)
        if tracer is not None:
            tracer.instrument_transport(transport)
        return transport

    if tracer is not None:
        start = tracer.wrap(start, "transport.start_node")
    return start


def _finish(path: str, record: dict, tracer: Tracer | None, holder: list) -> None:
    """Write the record; spans go first to their own file, and the time that
    took is recorded so that it can be left out of ``cli.exit_ms``."""
    if holder:
        record["data_sent"] = holder[0].stats.data_sent
        record["data_received"] = holder[0].stats.data_received
    if tracer is not None:
        t0 = clock()
        _write(path + ".spans", tracer.export())
        record["spans_write_s"] = clock() - t0
    _write(path, record)


def cmd_launch(opts) -> int:
    """``fedforge launch`` whose nodes run ``node.py node``.

    With --trace it also stamps each node line the launcher echoes and each
    node's exit, seen through ``waitid(WNOWAIT)`` so that the launcher still
    reaps its own children.
    """
    import fedforge.cli as cli
    import fedforge.launcher as launcher

    build_node_command = launcher._build_node_command
    flags = _flags(opts)

    def build(spec, node_id):
        cmd = build_node_command(spec, node_id)
        if cmd[1:4] != ["-m", "fedforge", "node"]:
            raise RuntimeError(f"unexpected node command {cmd[:4]}")
        record = os.path.join(opts.record_dir, f"node{node_id}.json")
        return [cmd[0], os.path.abspath(__file__), "node", "--node-id", str(node_id),
                "--record", record, "--spawn-t", repr(clock()), *flags, "--", *cmd[4:]]

    launcher._build_node_command = build
    line_t: dict[int, float] = {}
    exit_t: dict[int, float] = {}
    watchers: list[threading.Thread] = []
    if opts.trace:
        pump_output = launcher._pump_output

        def pump(node_id, stream, echo):
            def stamped(line):
                line_t[node_id] = clock()
                echo(line)
            pump_output(node_id, stream, stamped)

        def watch(pid):
            try:
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            except ChildProcessError:
                pass  # the launcher reaped it first, just now
            exit_t[pid] = clock()

        class WatchedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                watcher = threading.Thread(target=watch, args=(self.pid,), daemon=True)
                watcher.start()
                watchers.append(watcher)

        launcher._pump_output = pump
        subprocess.Popen = WatchedPopen
    code = cli.main(["launch", *opts.rest])
    for watcher in watchers:
        watcher.join(timeout=5.0)
    _write(os.path.join(opts.record_dir, "launch.json"),
           {"line_t": line_t, "exit_t": exit_t})
    return code


def cmd_node(opts) -> int:
    import fedforge.cli as cli

    record = {"node": opts.node_id, "pid": os.getpid(), "spawn_t": opts.spawn_t,
              "t_start": T_START, "t_imported": clock()}
    tracer = Tracer(node=opts.node_id) if opts.trace else None
    holder: list = []
    if tracer is not None:
        for name in ("load_sna_csv", "split", "partition_horizontal", "evaluate"):
            setattr(cli, name, tracer.wrap(getattr(cli, name), f"logreg.{name}"))
        cli.cb_cent_client = tracer.wrap(cli.cb_cent_client, "client_fn",
                                         "logreg.cb_cent_client", logreg_client)
        for name in ("cb_cent_server", "cb_decent_server"):
            setattr(cli, name, tracer.wrap(getattr(cli, name), "server_fn", f"logreg.{name}"))
        for name in ("fl_centralized", "fl_decentralized"):
            setattr(cli, name, tracer.wrap(getattr(cli, name), f"engine.{name}"))
    start = _traced_start(tracer, cli.start_node, record, holder)
    if opts.setup_only:
        def start_and_stop(config, *args, **kwargs):
            start(config, *args, **kwargs).close()
            raise _SetupDone
        cli.start_node = start_and_stop
    else:
        cli.start_node = start
    try:
        code = cli.main(["node", *opts.rest])
    except _SetupDone:
        code = 0
    _finish(opts.record, record, tracer, holder)
    return code


def cmd_relay(opts) -> int:
    from fedforge import NodeConfig, start_node

    from cheap import cheap_clique, cheap_inputs

    record = {"node": opts.node_id, "pid": os.getpid(), "spawn_t": opts.spawn_t,
              "t_start": T_START, "t_imported": clock()}
    tracer = Tracer(node=opts.node_id) if opts.trace else None
    holder: list = []
    callbacks, run_rounds = cheap_clique(tracer)
    inits, consts = cheap_inputs(opts.seed, opts.n)
    config = NodeConfig(n_nodes=opts.n, node_id=opts.node_id, base_port=opts.base_port)
    with _traced_start(tracer, start_node, record, holder)(config) as transport:
        if not opts.setup_only:
            final = run_rounds(transport, callbacks, inits[opts.node_id],
                               consts[opts.node_id], iterations=opts.rounds)
            record["t_done"] = clock()
            record["payload"] = final.hex()
    _finish(opts.record, record, tracer, holder)
    return 0


def main() -> int:
    argv = sys.argv[1:]
    rest: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1:]
    opts = _parser().parse_args(argv)
    opts.rest = opts.rest + rest
    return {"launch": cmd_launch, "node": cmd_node, "relay": cmd_relay}[opts.mode](opts)


if __name__ == "__main__":
    sys.exit(main())
