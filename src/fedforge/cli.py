"""Command-line surface: `launch` spawns an n-node run, `node` is one instance.

`launch` is what users invoke; `node` is the form the launcher spawns children
with.  Both live on the same executable so every process runs identical code
and differs only by its --id argument.
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
    ModelVector,
    cb_cent_client,
    cb_cent_server,
    cb_decent_server,
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
DEFAULT_SPLIT_SEED = 42
DEFAULT_TEST_FRACTION = 0.20


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


def _env_base_port() -> int | None:
    raw = os.environ.get(BASE_PORT_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise _UsageExit(f"{BASE_PORT_ENV} must be an integer, got {raw!r}")


def _resolve_base_port(flag_value: int | None) -> int:
    # Precedence: explicit flag, then environment, then the default.
    if flag_value is not None:
        return flag_value
    env_value = _env_base_port()
    if env_value is not None:
        return env_value
    return DEFAULT_BASE_PORT


def build_parser() -> _Parser:
    parser = _Parser(prog="fedforge", description="Federated learning over plain TCP sockets.")
    sub = parser.add_subparsers(dest="command", required=True)

    launch = sub.add_parser("launch", help="spawn an n-node federated run on this machine")
    launch.add_argument("--nodes", type=int, required=True, help="number of node processes (>= 2)")
    launch.add_argument("--srv-id", type=int, default=0, help="server node id (centralized only)")
    launch.add_argument("--algo", choices=ALGORITHMS, required=True)
    launch.add_argument("--iters", type=int, default=1, help="number of federation rounds")
    launch.add_argument("--base-port", type=int, default=None,
                        help=f"first listen port; node i uses base+i (default {BASE_PORT_ENV} or {DEFAULT_BASE_PORT})")
    launch.add_argument("--data", required=True, help="path to the ads CSV dataset")
    launch.add_argument("--watchdog", type=float, default=DEFAULT_WATCHDOG_SECONDS,
                        help="kill the run after this many seconds")
    launch.add_argument("--seed", type=int, default=DEFAULT_SPLIT_SEED, help="train/test split seed")
    launch.add_argument("--out-dir", default=None, help="directory for per-node result files")

    node = sub.add_parser("node", help="run a single node instance (spawned by launch)")
    node.add_argument("--nodes", type=int, required=True)
    node.add_argument("--id", type=int, required=True, dest="node_id")
    node.add_argument("--srv-id", type=int, default=0)
    node.add_argument("--algo", choices=ALGORITHMS, required=True)
    node.add_argument("--iters", type=int, default=1)
    node.add_argument("--base-port", type=int, default=None)
    node.add_argument("--data", required=True)
    node.add_argument("--seed", type=int, default=DEFAULT_SPLIT_SEED)
    node.add_argument("--out", default=None, help="write the final 16-byte model payload here")

    return parser


def _validate_common(args: argparse.Namespace) -> None:
    if args.nodes < 2:
        raise _UsageExit(f"--nodes must be >= 2, got {args.nodes}")
    if not 0 <= args.srv_id < args.nodes:
        raise _UsageExit(f"--srv-id must be in [0, {args.nodes}), got {args.srv_id}")
    if args.iters < 1:
        raise _UsageExit(f"--iters must be >= 1, got {args.iters}")
    if not Path(args.data).is_file():
        raise _UsageExit(f"dataset not found: {args.data}")


def _cmd_launch(args: argparse.Namespace) -> int:
    _validate_common(args)
    spec = LaunchSpec(
        n_nodes=args.nodes,
        algorithm=args.algo,
        dataset_path=args.data,
        srv_id=args.srv_id,
        iterations=args.iters,
        base_port=_resolve_base_port(args.base_port),
        watchdog_seconds=args.watchdog,
        split_seed=args.seed,
        out_dir=args.out_dir,
    )
    return max(launch(spec).exit_codes)


def _node_partition(args: argparse.Namespace):
    """Load, split, and pick this node's training slice.

    Centralized: the chunks go to the clients in ascending node-id order and
    the server trains nothing.  Decentralized: node i takes chunk i of n.
    """
    dataset = load_sna_csv(args.data)
    data = split(dataset, DEFAULT_TEST_FRACTION, args.seed)
    if args.algo == "centralized":
        if args.node_id == args.srv_id:
            return data, None
        clients = sorted(i for i in range(args.nodes) if i != args.srv_id)
        parts = partition_horizontal(data.X_train, data.y_train, args.nodes - 1)
        return data, parts[clients.index(args.node_id)]
    parts = partition_horizontal(data.X_train, data.y_train, args.nodes)
    return data, parts[args.node_id]


def run_node(args: argparse.Namespace) -> int:
    _validate_common(args)
    if not 0 <= args.node_id < args.nodes:
        raise _UsageExit(f"--id must be in [0, {args.nodes}), got {args.node_id}")

    data, part = _node_partition(args)
    config = NodeConfig(
        n_nodes=args.nodes,
        node_id=args.node_id,
        srv_id=args.srv_id,
        base_port=_resolve_base_port(args.base_port),
    )
    local = serialize_model(ModelVector(0.0, 0.0))
    with start_node(config) as transport:
        if args.algo == "centralized":
            callbacks = CallbackPair(server_fn=cb_cent_server, client_fn=cb_cent_client)
            final = fl_centralized(transport, callbacks, local, part, iterations=args.iters)
        else:
            callbacks = CallbackPair(server_fn=cb_decent_server, client_fn=cb_cent_client)
            final = fl_decentralized(transport, callbacks, local, part, iterations=args.iters)

    if args.out is not None:
        Path(args.out).write_bytes(final)
    model = deserialize_model(final)
    result = evaluate(data.X_test, data.y_test, model)
    print(f"node {args.node_id}: b0={model.b0:.6f} b1={model.b1:.6f} "
          f"test_accuracy={result.accuracy:.4f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "launch":
            return _cmd_launch(args)
        return run_node(args)
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
