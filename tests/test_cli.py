"""Command-line behaviour: flag parsing, base-port precedence, the four
exit codes, and a live two-node run driven entirely through main()."""

import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import fedforge.cli as cli
from test_golden import CLIQUE_PAYLOADS, CLIQUE_ROUNDS, CLIQUE_SPLIT_SEED
from fedforge.cli import (
    BASE_PORT_ENV,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    build_parser,
    main,
)
from fedforge.errors import FedforgeError
from fedforge.engine import CallbackPair, fl_decentralized
from fedforge.launcher import (
    DEFAULT_WATCHDOG_SECONDS,
    LaunchResult,
    LaunchSpec,
    LaunchTimeoutError,
    _build_node_command,
)
from fedforge.logreg import (
    TEST_FRACTION,
    ModelVector,
    bundled_sna_path,
    cb_cent_client,
    cb_decent_server,
    load_sna_csv,
    partition_horizontal,
    serialize_model,
    split,
)
from fedforge.sim import run_nodes, sim_transport
from fedforge.transport import DEFAULT_BASE_PORT, free_base_port

HEADER = "User ID,Gender,Age,EstimatedSalary,Purchased\n"


@pytest.fixture
def csv_path(tmp_path) -> Path:
    rows = "".join(
        f"{i},Male,{20 + 3 * i},{30000 + 1000 * i},{i % 2}\n" for i in range(12)
    )
    path = tmp_path / "tiny.csv"
    path.write_text(HEADER + rows)
    return path


def run_argv(command, csv, **overrides):
    opts = dict(nodes="2", algo="centralized", data=str(csv))
    if command == "node":
        opts["id"] = "0"
    opts.update(overrides)
    argv = [command]
    for key, value in opts.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def node_argv(csv, **overrides):
    return run_argv("node", csv, **overrides)


# -- usage errors ---------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["serve"]) == EXIT_USAGE


def test_launch_missing_required_flags(capsys):
    assert main(["launch", "--nodes", "3"]) == EXIT_USAGE
    assert "--algo" in capsys.readouterr().err


def test_unknown_algorithm(capsys):
    assert main(["launch", "--nodes", "3", "--algo", "gossip", "--data", "x.csv"]) \
        == EXIT_USAGE


# Shared run flags, checked on both subcommands with --nodes 2.
BAD_RUN_FLAGS = [
    ("nodes", "1", "a run needs at least 2 nodes, got 1"),
    ("srv_id", "9", "server id 9 outside [0, 2)"),
    ("iters", "0", "iterations must be >= 1, got 0"),
    ("base_port", "70000", "ports 70000..70001 outside [1024, 65535]"),
]


@pytest.mark.parametrize("command, flag, value, message", [
    *[pytest.param(command, *case, id=f"{command}-{case[0]}={case[1]}")
      for command in ("launch", "node") for case in BAD_RUN_FLAGS],
    pytest.param("node", "base_port", "65535", "ports 65535..65536 outside [1024, 65535]",
                 id="node-base_port=65535"),
    pytest.param("launch", "watchdog", "0", "watchdog must be positive, got 0.0",
                 id="launch-watchdog=0"),
])
def test_bad_run_flag_is_usage_error(csv_path, monkeypatch, capsys,
                                     command, flag, value, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected run must not spawn or bind")

    monkeypatch.setattr(cli, "launch", unreachable)
    monkeypatch.setattr(cli, "start_node", unreachable)
    assert main(run_argv(command, csv_path, **{flag: value})) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"fedforge: error: {message}"]


def test_node_id_out_of_range(csv_path, capsys):
    assert main(node_argv(csv_path, id="5")) == EXIT_USAGE
    assert "node id 5 outside [0, 2)" in capsys.readouterr().err


def test_missing_dataset_file(tmp_path, capsys):
    argv = node_argv(tmp_path / "absent.csv")
    assert main(argv) == EXIT_USAGE
    assert "dataset not found" in capsys.readouterr().err


def test_bad_env_port_is_usage_error(csv_path, monkeypatch, capsys):
    monkeypatch.setenv(BASE_PORT_ENV, "not-a-port")
    assert main(node_argv(csv_path)) == EXIT_USAGE
    assert BASE_PORT_ENV in capsys.readouterr().err


# -- parser defaults ------------------------------------------------------


def test_launch_defaults():
    args = build_parser().parse_args(
        ["launch", "--nodes", "3", "--algo", "centralized", "--data", "ads.csv"]
    )
    assert (args.srv_id, args.iters, args.base_port) == (0, 1, None)
    assert args.watchdog == 120.0
    assert args.seed == 42
    assert args.out_dir is None


def test_node_defaults():
    args = build_parser().parse_args(
        ["node", "--nodes", "2", "--id", "1", "--algo", "decentralized",
         "--data", "ads.csv"]
    )
    assert args.node_id == 1
    assert (args.seed, args.out, args.base_port) == (42, None, None)


# -- run description ------------------------------------------------------


def test_spec_round_trips_through_node_argv(csv_path, tmp_path):
    spec = LaunchSpec(n_nodes=4, algorithm="decentralized", dataset_path=csv_path,
                      srv_id=2, iterations=3, base_port=7100, split_seed=7,
                      watchdog_seconds=30.0, out_dir=tmp_path)
    # The watchdog and the output directory stay with the launcher.
    expected = replace(spec, watchdog_seconds=DEFAULT_WATCHDOG_SECONDS, out_dir=None)
    for node_id in range(spec.n_nodes):
        args = build_parser().parse_args(_build_node_command(spec, node_id)[3:])
        assert args.node_id == node_id
        assert cli._run_spec(args) == expected


# -- base-port precedence -------------------------------------------------


def test_flag_beats_environment(monkeypatch):
    monkeypatch.setenv(BASE_PORT_ENV, "7000")
    assert cli._resolve_base_port(8000) == 8000


def test_environment_beats_default(monkeypatch):
    monkeypatch.setenv(BASE_PORT_ENV, "7000")
    assert cli._resolve_base_port(None) == 7000


def test_default_when_nothing_set(monkeypatch):
    monkeypatch.delenv(BASE_PORT_ENV, raising=False)
    assert cli._resolve_base_port(None) == DEFAULT_BASE_PORT


# -- exit-code mapping ----------------------------------------------------


def test_timeout_maps_to_exit_3(csv_path, monkeypatch, capsys):
    def boom(spec, echo=print):
        raise LaunchTimeoutError("watchdog expired")

    monkeypatch.setattr(cli, "launch", boom)
    argv = ["launch", "--nodes", "2", "--algo", "centralized", "--data", str(csv_path)]
    assert main(argv) == EXIT_TIMEOUT
    assert "timeout" in capsys.readouterr().err


def test_runtime_error_maps_to_exit_2(csv_path, monkeypatch, capsys):
    def boom(spec, echo=print):
        raise FedforgeError("connection refused")

    monkeypatch.setattr(cli, "launch", boom)
    argv = ["launch", "--nodes", "2", "--algo", "centralized", "--data", str(csv_path)]
    assert main(argv) == EXIT_RUNTIME


def test_malformed_dataset_maps_to_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "1,Male,nineteen,1,0\n")
    assert main(node_argv(bad)) == EXIT_RUNTIME
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("codes,expected", [
    ([0, 7, 0], 7),
    ([0, -9, 0], 2),   # a node killed by a signal is a runtime failure
    ([0, 7, -15], 7),
], ids=["exit7", "killed", "exit7-and-killed"])
def test_launch_exit_is_worst_child_exit(csv_path, monkeypatch, codes, expected):
    monkeypatch.setattr(cli, "launch",
                        lambda spec, echo=print: LaunchResult([], codes))
    argv = ["launch", "--nodes", "3", "--algo", "centralized", "--data", str(csv_path)]
    assert main(argv) == expected


# -- live runs ------------------------------------------------------------


def test_two_node_run_through_main(csv_path, tmp_path, capsys):
    port = free_base_port(2)
    outs = [tmp_path / "a.bin", tmp_path / "b.bin"]
    argvs = [
        node_argv(csv_path, id=str(i), algo="decentralized",
                  base_port=str(port), out=str(outs[i]))
        for i in (0, 1)
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        codes = list(pool.map(main, argvs))
    assert codes == [EXIT_OK, EXIT_OK]
    blobs = [p.read_bytes() for p in outs]
    assert len(blobs[0]) == 16 and blobs[0] == blobs[1]
    printed = capsys.readouterr().out
    assert "node 0: b0=" in printed and "node 1: b0=" in printed


def clique_argv(node_id, port, out, rounds=CLIQUE_ROUNDS):
    """``fedforge node`` argv of the golden 2-node clique over the bundled data."""
    return node_argv(bundled_sna_path(), id=node_id, algo="decentralized",
                     iters=rounds, seed=CLIQUE_SPLIT_SEED, base_port=port, out=out)


def test_clique_trains_own_update_once_per_run(tmp_path, monkeypatch, capsys):
    """Per node, one training per peer broadcast served and one for its own
    update: R + 1 calls, where training the own update every round made 2R.
    The payloads are those of the path that retrains it every round."""
    rounds = 3
    calls = Counter()

    def counting_client(*args, **kwargs):
        calls[threading.get_ident()] += 1
        return cb_cent_client(*args, **kwargs)

    monkeypatch.setattr(cli, "cb_cent_client", counting_client)
    port = free_base_port(2)
    outs = [tmp_path / f"node{i}.bin" for i in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        codes = list(pool.map(main, [clique_argv(i, port, outs[i], rounds) for i in (0, 1)]))
    assert codes == [EXIT_OK, EXIT_OK]
    assert sorted(calls.values()) == [rounds + 1, rounds + 1]

    data = split(load_sna_csv(bundled_sna_path()), TEST_FRACTION, CLIQUE_SPLIT_SEED)
    parts = partition_horizontal(data.X_train, data.y_train, 2)
    assert parts[0] != parts[1]
    zero = serialize_model(ModelVector(0.0, 0.0))
    retrained = CallbackPair(server_fn=cb_decent_server, client_fn=cb_cent_client)
    want = run_nodes(sim_transport(2), lambda handle: fl_decentralized(
        handle, retrained, zero, parts[handle.config.node_id], iterations=rounds))
    assert [p.read_bytes() for p in outs] == want
    assert want[0] != want[1]


def other_interpreter() -> str | None:
    """The first python3.12, 3.13 or 3.14 on PATH that runs and is not this
    interpreter's version."""
    for name in ("python3.12", "python3.13", "python3.14"):
        path = shutil.which(name)
        if path is None:
            continue
        try:
            probe = subprocess.run([path, "-c", "import sys; print(sys.version_info[:2])"],
                                   capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() != str(sys.version_info[:2]):
            return path
    return None


def test_mixed_interpreter_clique_writes_golden_bytes(tmp_path):
    """Node 0 on this interpreter, node 1 on another CPython: both end with
    the golden payloads, so the zero-ulp chain holds across interpreters."""
    other = other_interpreter()
    if other is None:
        pytest.skip("no other python3.12/3.13/3.14 on PATH")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    port = free_base_port(2)
    outs = [tmp_path / f"node{i}.bin" for i in (0, 1)]
    procs = [subprocess.Popen([exe, "-m", "fedforge", *clique_argv(i, port, outs[i])],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
             for i, exe in enumerate([sys.executable, other])]
    try:
        logs = [proc.communicate(timeout=60)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
    assert [proc.returncode for proc in procs] == [EXIT_OK, EXIT_OK], logs
    assert tuple(p.read_bytes() for p in outs) == CLIQUE_PAYLOADS


def test_launch_subcommand_end_to_end(csv_path, tmp_path, capsys):
    port = free_base_port(3)
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    argv = [
        "launch", "--nodes", "3", "--algo", "centralized",
        "--data", str(csv_path), "--base-port", str(port),
        "--out-dir", str(out_dir),
    ]
    assert main(argv) == EXIT_OK
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["node0.bin", "node1.bin", "node2.bin"]
    echoed = capsys.readouterr().out
    for i in range(3):
        assert f"[node {i}] " in echoed


def test_module_entry_point(csv_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "fedforge"], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_USAGE
    assert "usage" in proc.stderr
