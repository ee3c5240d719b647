"""Command-line behaviour: flag parsing, base-port precedence, the four
exit codes, and a live two-node run driven entirely through main()."""

import functools
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import fedforge.cli as cli
from test_golden import CLIQUE_PAYLOADS, CLIQUE_ROUNDS, CLIQUE_SPLIT_SEED, STAR_PAYLOADS, simulate
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
from fedforge.launcher import (
    DEFAULT_WATCHDOG_SECONDS,
    LaunchResult,
    LaunchSpec,
    LaunchTimeoutError,
    _build_node_command,
)
from fedforge.logreg import bundled_sna_path, cb_cent_client
from fedforge.sim import SeededSchedule
from fedforge.transport import DEFAULT_BASE_PORT, LOCALHOST, free_base_port

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


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_launch_out_dir_blocked_by_file_is_usage_error(csv_path, tmp_path, monkeypatch, capsys,
                                                       below):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected run must not spawn or bind")

    monkeypatch.setattr(cli, "launch", unreachable)
    blocker = tmp_path / "results"
    blocker.write_text("")
    argv = run_argv("launch", csv_path, out_dir=blocker / below)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == \
        [f"fedforge: error: output directory blocked by a file: {blocker}"]


def test_node_id_out_of_range(csv_path, capsys):
    assert main(node_argv(csv_path, id="5")) == EXIT_USAGE
    assert "node id 5 outside [0, 2)" in capsys.readouterr().err


def test_missing_dataset_file(tmp_path, capsys):
    argv = node_argv(tmp_path / "absent.csv")
    assert main(argv) == EXIT_USAGE
    assert "dataset not found" in capsys.readouterr().err


def test_node_out_into_missing_directory_fails_before_binding(csv_path, tmp_path, capsys):
    """The checks come before ``start_node``, so the node exits 1 at once,
    with no peer running, instead of after a whole run: for ``--out`` in a
    missing directory, and for ``--out`` naming a directory."""
    missing = tmp_path / "missing"
    for out, error in [(missing / "node0.bin", f"output directory not found: {missing}"),
                       (tmp_path, f"output path is a directory: {tmp_path}")]:
        port = free_base_port(2)
        start = time.monotonic()
        assert main(node_argv(csv_path, base_port=port, out=out)) == EXIT_USAGE
        assert time.monotonic() - start < 2.0
        assert capsys.readouterr().err.splitlines() == [f"fedforge: error: {error}"]
        with socket.create_server((LOCALHOST, port)):
            pass  # node 0's port was never bound, or was released


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
    expected = LaunchSpec(n_nodes=4, algorithm="decentralized", dataset_path=csv_path,
                          srv_id=2, iterations=3, base_port=7100, split_seed=7,
                          watchdog_seconds=DEFAULT_WATCHDOG_SECONDS, out_dir=None)
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


def clique_argv(node_id, port, out):
    """``fedforge node`` argv of the golden 2-node clique over the bundled data."""
    return node_argv(bundled_sna_path(), id=node_id, algo="decentralized",
                     iters=CLIQUE_ROUNDS, seed=CLIQUE_SPLIT_SEED, base_port=port, out=out)


def test_clique_trains_own_update_once_per_run(tmp_path, monkeypatch, capsys):
    """Per node, one training per peer broadcast served and one for its own
    update: R + 1 calls, where training the own update every round made 2R.
    The payloads are the golden ones."""
    calls = Counter()

    def counting_client(*args, **kwargs):
        calls[threading.get_ident()] += 1
        return cb_cent_client(*args, **kwargs)

    monkeypatch.setattr(cli, "cb_cent_client", counting_client)
    port = free_base_port(2)
    outs = [tmp_path / f"node{i}.bin" for i in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        codes = list(pool.map(main, [clique_argv(i, port, outs[i]) for i in (0, 1)]))
    assert codes == [EXIT_OK, EXIT_OK]
    assert sorted(calls.values()) == [CLIQUE_ROUNDS + 1, CLIQUE_ROUNDS + 1]
    assert tuple(p.read_bytes() for p in outs) == CLIQUE_PAYLOADS


def test_star_clients_train_their_own_slices(tmp_path):
    """Three ``fedforge node`` star nodes, server 1, on split seed 1, whose
    two client slices differ: every node writes the golden star payload, in
    which client i trains the slice at its place among the clients.  The
    clients' files are compared too, because the server's mean of two
    updates is the same if the clients swap slices."""
    port = free_base_port(3)
    outs = [tmp_path / f"node{i}.bin" for i in range(3)]
    argvs = [node_argv(bundled_sna_path(), id=i, nodes=3, srv_id=1, algo="centralized",
                       seed=CLIQUE_SPLIT_SEED, base_port=port, out=outs[i])
             for i in range(3)]
    with ThreadPoolExecutor(max_workers=3) as pool:
        codes = list(pool.map(main, argvs))
    assert codes == [EXIT_OK] * 3
    assert tuple(p.read_bytes() for p in outs) == STAR_PAYLOADS


@pytest.mark.parametrize("algo", ["centralized", "decentralized"], ids=["star", "clique"])
def test_node_program_does_not_depend_on_delivery_order(algo):
    """``node_program`` over the sim, 3 nodes, 2 rounds on the bundled data:
    20 seeded delivery orders all give the payloads of FIFO delivery."""
    spec = LaunchSpec(3, algo, bundled_sna_path(), srv_id=1, iterations=2,
                      split_seed=CLIQUE_SPLIT_SEED)
    want = simulate(spec)
    for seed in range(20):
        assert simulate(spec, SeededSchedule(seed)) == want, seed


@functools.cache
def other_interpreters() -> dict[str, str]:
    """One interpreter per CPython minor >= 3.10 other than this one's, as
    ``{"3.x": path}``, oldest first.  The candidates are ``python3.1x`` on
    ``PATH``, then ``<dir>/bin/python3`` for each install directory beside
    this interpreter's; each is probed once per session."""
    versions = Path(sys.executable).resolve().parents[1].parent
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(map(str, versions.glob("*/bin/python3")))
    found: dict[tuple[int, int], str] = {}
    for path in filter(None, candidates):
        try:
            probe = subprocess.run(
                [path, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = probe.stdout.split()
        if probe.returncode != 0 or len(words) != 3 or words[0] != "cpython":
            continue
        version = (int(words[1]), int(words[2]))
        if version >= (3, 10) and version != sys.version_info[:2]:
            found.setdefault(version, path)
    return {"%d.%d" % version: found[version] for version in sorted(found)}


def other_interpreter() -> str | None:
    """The newest of :func:`other_interpreters`, or None."""
    return next(reversed(other_interpreters().values()), None)


SRC = Path(cli.__file__).resolve().parents[1]  # the fedforge tree under test


def src_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_node_processes(exes, argvs) -> None:
    """Start ``python -m fedforge`` with each argv under its interpreter, all
    at once, and check that every one exits 0."""
    procs = [subprocess.Popen([exe, "-m", "fedforge", *argv], env=src_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
             for exe, argv in zip(exes, argvs)]
    try:
        logs = [proc.communicate(timeout=60)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
    assert [proc.returncode for proc in procs] == [EXIT_OK] * len(procs), logs


def unittest_passes_under(exe, module) -> None:
    proc = subprocess.run([exe, "-m", "unittest", module], cwd=Path(__file__).resolve().parents[1],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_mixed_interpreter_clique_writes_golden_bytes(tmp_path):
    """Node 0 on this interpreter, node 1 on another CPython: both end with
    the golden payloads, so the zero-ulp chain holds across interpreters."""
    other = other_interpreter()
    if other is None:
        pytest.skip("no other CPython >= 3.10 found")
    port = free_base_port(2)
    outs = [tmp_path / f"node{i}.bin" for i in (0, 1)]
    run_node_processes([sys.executable, other], [clique_argv(i, port, outs[i]) for i in (0, 1)])
    assert tuple(p.read_bytes() for p in outs) == CLIQUE_PAYLOADS


@pytest.mark.parametrize("other", [*other_interpreters().values()], ids=[*other_interpreters()])
def test_golden_bits_under_other_interpreter(other):
    """``tests/test_golden.py`` passes under every other CPython minor found,
    so its bits do not depend on the interpreter that collects this suite."""
    unittest_passes_under(other, "tests.test_golden")


def every_interpreter() -> dict[str, str]:
    """This interpreter and :func:`other_interpreters`, oldest first."""
    found = {"%d.%d" % sys.version_info[:2]: sys.executable, **other_interpreters()}
    return dict(sorted(found.items(), key=lambda item: tuple(map(int, item[0].split(".")))))


@pytest.mark.parametrize("algo, srv_id", [("centralized", 1), ("decentralized", 0)],
                         ids=[f"{topology}-{'+'.join(every_interpreter())}"
                              for topology in ("star", "clique")])
def test_one_node_per_interpreter_writes_the_sim_bytes(tmp_path, algo, srv_id):
    """One ``fedforge node`` per CPython minor found, this one's included,
    in a TCP star with server 1 and in a clique, 3 rounds each: every node
    writes the bytes that ``simulate`` gives in-process."""
    if not other_interpreters():
        pytest.skip("no other CPython >= 3.10 found")
    exes = list(every_interpreter().values())
    port = free_base_port(len(exes))
    outs = [tmp_path / f"node{i}.bin" for i in range(len(exes))]
    run_node_processes(exes, [node_argv(bundled_sna_path(), id=i, nodes=len(exes), srv_id=srv_id,
                                        algo=algo, iters=3, seed=CLIQUE_SPLIT_SEED,
                                        base_port=port, out=outs[i])
                              for i in range(len(exes))])
    spec = LaunchSpec(len(exes), algo, bundled_sna_path(), srv_id=srv_id, iterations=3,
                      split_seed=CLIQUE_SPLIT_SEED)
    assert [p.read_bytes() for p in outs] == simulate(spec)


@pytest.mark.parametrize("other", [*other_interpreters().values()], ids=[*other_interpreters()])
def test_value_contract_under_other_interpreter(other):
    """``tests/test_values_nan.py``, the value-class contract's case that
    ``dataclasses`` answers differently on 3.13, passes under every other
    CPython minor found."""
    unittest_passes_under(other, "tests.test_values_nan")


# `fedforge launch` that prints, last, the thread count at each of its forks.
COUNTED_LAUNCH = """\
import os, sys, threading
import fedforge.cli as cli
real_fork, forks = os.fork, []
def fork():
    forks.append(threading.active_count())
    return real_fork()
os.fork = fork
code = cli.main(sys.argv[1:])
print("forks", *forks)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
def test_forked_star_under_other_interpreter_starts_no_thread_first(tmp_path, monkeypatch):
    """A launch under another CPython with ``-W error::DeprecationWarning``,
    which makes 3.12+'s warning about forking a process with threads fatal,
    forks each node with one thread alive and writes the bytes of a star
    spawned by this interpreter."""
    other = other_interpreter()
    if other is None:
        pytest.skip("no other CPython >= 3.10 found")

    def argv(name):
        return ["launch", "--nodes", "3", "--algo", "centralized", "--data",
                str(bundled_sna_path()), "--base-port", str(free_base_port(3)),
                "--out-dir", str(tmp_path / name)]

    proc = subprocess.run([other, "-W", "error::DeprecationWarning", "-c", COUNTED_LAUNCH,
                           *argv("forked")], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "forks 1 1 1"
    monkeypatch.delattr(os, "fork")
    assert main(argv("spawned")) == EXIT_OK
    blobs = {name: [(tmp_path / name / f"node{i}.bin").read_bytes() for i in range(3)]
             for name in ("forked", "spawned")}
    assert blobs["forked"] == blobs["spawned"]


# Modules a `fedforge node` or `launch` process must start without: dataclasses
# imports inspect, and only the launcher spawns.
IMPORT_GUARD = ("import sys; before = set(sys.modules); import fedforge.cli; "
                "new = set(sys.modules) - before; "
                "print(*sorted(new & {'dataclasses', 'inspect', 'subprocess'}))")


@pytest.mark.parametrize("exe", [sys.executable, *other_interpreters().values()],
                         ids=["this", *other_interpreters()])
def test_cli_imports_no_dataclasses_inspect_or_subprocess(exe):
    proc = subprocess.run([exe, "-c", IMPORT_GUARD], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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
