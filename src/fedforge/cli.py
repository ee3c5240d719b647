"""Command-line surface: `launch` starts an n-node run, `node` is one instance.

`launch` is what users invoke; `node` is what each child of the launcher runs,
forked or spawned, differing only by its --id.  A node runs `node_program`,
the one place a run becomes a node's rounds; the tests check that function
by running it for every node over the sim.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .engine import CallbackPair, fl_centralized, fl_decentralized
from .errors import FedforgeError
from .launcher import ALGORITHMS, DEFAULT_WATCHDOG_SECONDS, LaunchSpec, LaunchTimeoutError, launch
from .logreg import (
    DEFAULT_SPLIT_SEED,
    TEST_FRACTION,
    ModelVector,
    cb_cent_client,
    cb_cent_server,
    cb_decent_server,  # unused here; perfbench/node.py wraps it by name
    clique_updates,
    deserialize_model,
    evaluate,
    load_sna_csv,
    partition_horizontal,
    serialize_model,
    split,
)
from .transport import DEFAULT_BASE_PORT, NodeConfig, start_node

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_TIMEOUT = 3

BASE_PORT_ENV = "FEDFORGE_BASE_PORT"


class _UsageExit(Exception):
    """Raised in place of SystemExit so main() can map usage errors to 1."""

    def __init__(self, message: str, printed: bool = False):
        super().__init__(message)
        self.printed = printed


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit(message, printed=True)


def _resolve_base_port(flag_value: int | None) -> int:
    # Precedence: explicit flag, then environment, then the default.
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(BASE_PORT_ENV, str(DEFAULT_BASE_PORT))
    try:
        return int(raw)
    except ValueError:
        raise _UsageExit(f"{BASE_PORT_ENV} must be an integer, got {raw!r}")


def build_parser() -> _Parser:
    run = _Parser(add_help=False)
    run.add_argument("--nodes", type=int, required=True, help="number of node processes (>= 2)")
    run.add_argument("--srv-id", type=int, default=0, help="server node id (centralized only)")
    run.add_argument("--algo", choices=ALGORITHMS, required=True)
    run.add_argument("--iters", type=int, default=1, help="number of federation rounds")
    run.add_argument("--base-port", type=int, default=None,
                     help=f"first listen port; node i uses base+i (default {BASE_PORT_ENV} or {DEFAULT_BASE_PORT})")
    run.add_argument("--data", required=True, help="path to the ads CSV dataset")
    run.add_argument("--seed", type=int, default=DEFAULT_SPLIT_SEED, help="train/test split seed")

    parser = _Parser(prog="fedforge", description="Federated learning over plain TCP sockets.")
    sub = parser.add_subparsers(dest="command", required=True)

    launch = sub.add_parser("launch", parents=[run], help="spawn an n-node federated run on this machine")
    launch.add_argument("--watchdog", type=float, default=DEFAULT_WATCHDOG_SECONDS,
                        help="kill the run after this many seconds")
    launch.add_argument("--out-dir", default=None, help="directory for per-node result files")

    node = sub.add_parser("node", parents=[run], help="run a single node instance (started by launch)")
    node.add_argument("--id", type=int, required=True, dest="node_id")
    node.add_argument("--out", default=None, help="write the final 16-byte model payload here")

    return parser


def _run_spec(args: argparse.Namespace, **launch_fields) -> LaunchSpec:
    """The LaunchSpec the shared run flags describe; a rejected value or missing dataset exits 1."""
    try:
        spec = LaunchSpec(
            n_nodes=args.nodes, algorithm=args.algo, dataset_path=Path(args.data),
            srv_id=args.srv_id, iterations=args.iters,
            base_port=_resolve_base_port(args.base_port), split_seed=args.seed,
            **launch_fields,
        )
    except ValueError as exc:
        raise _UsageExit(str(exc))
    if not spec.dataset_path.is_file():
        raise _UsageExit(f"dataset not found: {args.data}")
    return spec


def _cmd_launch(args: argparse.Namespace) -> int:
    spec = _run_spec(args, watchdog_seconds=args.watchdog, out_dir=args.out_dir)
    if args.out_dir is not None:  # launch creates it; a file on its path is a usage error
        out_dir = Path(args.out_dir)
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise _UsageExit(f"output directory blocked by a file: {existing}")
    # launch reports a death by signal N, and a node it stopped, as -N: a runtime failure.
    return max(EXIT_RUNTIME if code < 0 else code for code in launch(spec).exit_codes)


def node_program(spec: LaunchSpec, node_id: int):
    """Load, split and partition the data for this node, before any barrier;
    return the split and ``run(transport)``, which runs the node's rounds and
    returns its final payload.  A star's clients take the chunks in ascending
    id order and its server trains nothing.  Clique node i takes chunk i of
    n; its own update, from the zero model on a fixed partition, is the same
    every round, so ``run`` trains it once."""
    data = split(load_sna_csv(spec.dataset_path), TEST_FRACTION, spec.split_seed)
    local = serialize_model(ModelVector(0.0, 0.0))
    if spec.algorithm == "centralized":
        clients = [i for i in range(spec.n_nodes) if i != spec.srv_id]
        part = None if node_id == spec.srv_id else partition_horizontal(
            data.X_train, data.y_train, len(clients))[clients.index(node_id)]
    else:
        part = partition_horizontal(data.X_train, data.y_train, spec.n_nodes)[node_id]

    def run(transport) -> bytes:
        if spec.algorithm == "centralized":
            callbacks = CallbackPair(server_fn=cb_cent_server, client_fn=cb_cent_client)
            return fl_centralized(transport, callbacks, local, part, iterations=spec.iterations)
        own = cb_cent_client(local, part, local)
        callbacks = CallbackPair(
            server_fn=lambda _, msgs: cb_cent_server(None, clique_updates(msgs, own)),
            client_fn=cb_cent_client)
        return fl_decentralized(transport, callbacks, local, part, iterations=spec.iterations)

    return data, run


def run_node(args: argparse.Namespace, listener=None) -> int:
    spec = _run_spec(args)
    try:
        config = NodeConfig(spec.n_nodes, args.node_id, spec.srv_id, spec.base_port)
    except ValueError as exc:
        raise _UsageExit(str(exc))
    if args.out is not None and not Path(args.out).parent.is_dir():
        raise _UsageExit(f"output directory not found: {Path(args.out).parent}")
    if args.out is not None and Path(args.out).is_dir():
        raise _UsageExit(f"output path is a directory: {args.out}")

    data, run = node_program(spec, args.node_id)
    with start_node(config, listener=listener) as transport:
        final = run(transport)

    if args.out is not None:
        Path(args.out).write_bytes(final)
    model = deserialize_model(final)
    result = evaluate(data.X_test, data.y_test, model)
    print(f"node {args.node_id}: b0={model.b0:.6f} b1={model.b1:.6f} "
          f"test_accuracy={result.accuracy:.4f}")
    return EXIT_OK


def main(argv: list[str] | None = None, listener=None) -> int:
    """Run one command; a launcher that forked this ``node`` passes its bound ``listener``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "launch":
            return _cmd_launch(args)
        return run_node(args, listener)
    except _UsageExit as exc:
        if not exc.printed:
            print(f"fedforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LaunchTimeoutError as exc:
        print(f"fedforge: timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (FedforgeError, OSError) as exc:
        print(f"fedforge: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
