"""Process supervision: starting one process per node, forked or spawned,
collecting exit codes in node order, ending the run at the first failed
node, the run-wide watchdog, and output echoing."""

import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

import fedforge.cli as cli
import fedforge.launcher as launcher
from fedforge.cli import EXIT_RUNTIME, main
from fedforge.launcher import (
    DEFAULT_WATCHDOG_SECONDS,
    LauncherError,
    LaunchSpec,
    LaunchTimeoutError,
    launch,
    node_out_path,
)
from fedforge.logreg import bundled_sna_path
from fedforge.transport import LOCALHOST, _bindable, free_base_port

HEADER = "User ID,Gender,Age,EstimatedSalary,Purchased\n"


def tiny_csv(dirpath) -> Path:
    """Twelve rows: enough for a 0.2 split and two non-empty partitions."""
    rows = "".join(
        f"{i},Male,{20 + 3 * i},{30000 + 1000 * i},{i % 2}\n" for i in range(12)
    )
    path = Path(dirpath) / "tiny.csv"
    path.write_text(HEADER + rows)
    return path


# -- spec validation ------------------------------------------------------


def test_spec_defaults(tmp_path):
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path))
    assert spec.srv_id == 0
    assert spec.iterations == 1
    assert spec.base_port == 6000
    assert spec.watchdog_seconds == DEFAULT_WATCHDOG_SECONDS == 120.0
    assert spec.split_seed == 42
    assert spec.out_dir is None


@pytest.mark.parametrize("kwargs", [
    dict(n_nodes=1),
    dict(n_nodes=0),
    dict(algorithm="gossip"),
    dict(srv_id=-1),
    dict(srv_id=3),
    dict(iterations=0),
    dict(watchdog_seconds=0.0),
    dict(watchdog_seconds=-5.0),
    dict(base_port=70000),
    dict(base_port=1023),
    dict(watchdog_seconds=float("nan")),
])
def test_spec_validation(tmp_path, kwargs):
    base = dict(n_nodes=3, algorithm="centralized", dataset_path=tiny_csv(tmp_path))
    with pytest.raises(ValueError):
        LaunchSpec(**{**base, **kwargs})


def test_node_out_path_convention(tmp_path):
    assert node_out_path(tmp_path, 0) == tmp_path / "node0.bin"
    assert node_out_path(str(tmp_path), 7) == tmp_path / "node7.bin"


# -- one real run, inspected several ways ---------------------------------


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("out")
    spec = LaunchSpec(
        n_nodes=2,
        algorithm="decentralized",
        dataset_path=tiny_csv(tmp_path_factory.mktemp("data")),
        base_port=free_base_port(2),
        watchdog_seconds=60.0,
        out_dir=out_dir,
    )
    lines: list[str] = []
    result = launch(spec, echo=lines.append)
    return spec, result, lines


def flags_of(argv):
    """argv -> {flag: value} for the node subcommand's flag pairs."""
    return dict(zip(argv[4::2], argv[5::2]))


def test_every_node_runs_the_same_program(real_run):
    spec, result, _ = real_run
    assert [r.node_id for r in result.records] == [0, 1]
    for record in result.records:
        assert record.argv[:4] == (sys.executable, "-m", "fedforge", "node")
        assert record.pid > 0
    # Identical programs, identical flags; only --id and --out vary.
    f0, f1 = (flags_of(r.argv) for r in result.records)
    varying = {k for k in f0 if f0[k] != f1[k]}
    assert varying == {"--id", "--out"}
    assert (f0["--id"], f1["--id"]) == ("0", "1")


def test_exit_codes_in_node_order(real_run):
    _, result, _ = real_run
    assert result.exit_codes == [0, 0]


def test_result_files_written(real_run):
    spec, _, _ = real_run
    blobs = [node_out_path(spec.out_dir, i).read_bytes() for i in (0, 1)]
    assert all(len(b) == 16 for b in blobs)
    assert blobs[0] == blobs[1]  # two-node symmetric aggregation


def test_child_lines_echoed_with_prefix(real_run):
    _, _, lines = real_run
    assert any(line.startswith("[node 0] ") for line in lines)
    assert any(line.startswith("[node 1] ") for line in lines)


def test_missing_out_dir_is_created(tmp_path):
    out_dir = tmp_path / "results" / "nested"
    spec = LaunchSpec(
        2, "centralized", tiny_csv(tmp_path),
        base_port=free_base_port(2), watchdog_seconds=60.0, out_dir=out_dir,
    )
    assert launch(spec, echo=lambda _: None).exit_codes == [0, 0]
    assert sorted(p.name for p in out_dir.iterdir()) == ["node0.bin", "node1.bin"]


# -- supervision mechanics (fake children) --------------------------------


def command_stub(scripts):
    """Node i runs ``python -c scripts[i]``."""
    return lambda spec, node_id: [sys.executable, "-c", scripts[node_id]]


SLEEP_60 = "import time; time.sleep(60)"


def test_child_failure_propagates(tmp_path, monkeypatch):
    """Node 1's exit 7 ends the run: nodes 0 and 2, which would sleep well
    past it, are stopped."""
    monkeypatch.setattr(launcher, "_build_node_command",
                        command_stub([SLEEP_60, "import sys; sys.exit(7)", SLEEP_60]))
    spec = LaunchSpec(3, "centralized", tiny_csv(tmp_path))
    assert launch(spec, echo=lambda _: None).exit_codes == [-signal.SIGTERM, 7, -signal.SIGTERM]


def test_a_failed_node_that_is_not_waited_on_first_ends_the_run(tmp_path, monkeypatch):
    """Node 2 exits 7 while nodes 0 and 1 sleep and keep their output open."""
    monkeypatch.setattr(launcher, "_build_node_command", command_stub(
        [SLEEP_60, SLEEP_60, "import sys, time; time.sleep(0.2); sys.exit(7)"]))
    spec = LaunchSpec(3, "centralized", tiny_csv(tmp_path), watchdog_seconds=30.0)
    lines: list[str] = []
    start = time.monotonic()
    result = launch(spec, echo=lines.append)
    assert time.monotonic() - start < 2.0
    assert result.exit_codes == [-signal.SIGTERM, -signal.SIGTERM, 7]
    assert lines == ["fedforge: node 2 (exit 7) failed; stopped nodes [0, 1]"]


def test_the_wait_sleeps_in_a_reader_join_not_on_a_timer(tmp_path, monkeypatch):
    """While every node's output is open, the wait blocks in a join that
    wakes at a node's exit; a 2 ms poll would make about 500 sleeps here."""
    monkeypatch.setattr(launcher, "_build_node_command",
                        command_stub(["import time; time.sleep(1)"] * 3))
    real_sleep = time.sleep
    sleeps: list[float] = []

    def sleep(seconds):
        sleeps.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    spec = LaunchSpec(3, "centralized", tiny_csv(tmp_path), watchdog_seconds=30.0)
    assert launch(spec, echo=lambda _: None).exit_codes == [0, 0, 0]
    assert len(sleeps) < 20


def test_watchdog_kills_hung_run(tmp_path, monkeypatch):
    def sleeper(spec, node_id):
        return [sys.executable, "-c", "import time; time.sleep(60)"]

    monkeypatch.setattr(launcher, "_build_node_command", sleeper)
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path), watchdog_seconds=1.0)
    start = time.monotonic()
    with pytest.raises(LaunchTimeoutError, match=r"nodes still running: \[0, 1\]"):
        launch(spec, echo=lambda _: None)
    assert time.monotonic() - start < 10.0  # children killed, not waited out


def test_watchdog_names_only_survivors(tmp_path, monkeypatch):
    def build(spec, node_id):
        delay = 0.0 if node_id == 0 else 60.0
        return [sys.executable, "-c", f"import time; time.sleep({delay})"]

    monkeypatch.setattr(launcher, "_build_node_command", build)
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path), watchdog_seconds=2.0)
    with pytest.raises(LaunchTimeoutError, match=r"nodes still running: \[1\]"):
        launch(spec, echo=lambda _: None)


def test_a_failed_node_ends_the_run_before_the_watchdog(tmp_path, monkeypatch):
    """Node 0 exits 7 at once while nodes 1 and 2 would sleep past the 2 s
    watchdog: no timeout is raised, and one line names the failed node and
    the stopped ones."""
    monkeypatch.setattr(launcher, "_build_node_command",
                        command_stub(["import sys; sys.exit(7)", SLEEP_60, SLEEP_60]))
    spec = LaunchSpec(3, "centralized", tiny_csv(tmp_path), watchdog_seconds=2.0)
    lines: list[str] = []
    start = time.monotonic()
    assert launch(spec, echo=lines.append).exit_codes == [7, -signal.SIGTERM, -signal.SIGTERM]
    assert time.monotonic() - start < 2.0
    assert lines == ["fedforge: node 0 (exit 7) failed; stopped nodes [1, 2]"]


# stderr shares the stdout pipe, so a stub closes both to end its output.
CLOSE_OUTPUT = "import os, time; os.close(1); os.close(2); "


def test_node_exiting_after_its_output_ends_is_waited_for(tmp_path, monkeypatch):
    def build(spec, node_id):
        return [sys.executable, "-c", CLOSE_OUTPUT + "time.sleep(0.5)"]

    monkeypatch.setattr(launcher, "_build_node_command", build)
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path), watchdog_seconds=30.0)
    assert launch(spec, echo=lambda _: None).exit_codes == [0, 0]


def test_watchdog_names_a_node_that_hangs_after_its_output_ends(tmp_path, monkeypatch):
    def build(spec, node_id):
        delay = 0.0 if node_id == 0 else 60.0
        return [sys.executable, "-c", CLOSE_OUTPUT + f"time.sleep({delay})"]

    monkeypatch.setattr(launcher, "_build_node_command", build)
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path), watchdog_seconds=2.0)
    start = time.monotonic()
    with pytest.raises(LaunchTimeoutError, match=r"nodes still running: \[1\]"):
        launch(spec, echo=lambda _: None)
    assert time.monotonic() - start < 10.0


def test_unspawnable_command_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(
        launcher, "_build_node_command",
        lambda spec, node_id: ["/nonexistent/fedforge-node"],
    )
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path))
    with pytest.raises(LauncherError, match="failed to spawn node 0"):
        launch(spec, echo=lambda _: None)


def test_stub_output_echoed(tmp_path, monkeypatch):
    def build(spec, node_id):
        return [sys.executable, "-c", f"print('ready {node_id}')"]

    monkeypatch.setattr(launcher, "_build_node_command", build)
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path))
    lines: list[str] = []
    launch(spec, echo=lines.append)
    assert "[node 0] ready 0" in lines
    assert "[node 1] ready 1" in lines


def test_ports_released_between_runs(tmp_path):
    """Two back-to-back runs on the same ports both succeed."""
    spec = LaunchSpec(
        2, "decentralized", tiny_csv(tmp_path),
        base_port=free_base_port(2), watchdog_seconds=60.0,
    )
    for _ in range(2):
        assert launch(spec, echo=lambda _: None).exit_codes == [0, 0]


# -- forked nodes (POSIX) -------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
NODE_COMMAND = (sys.executable, "-m", "fedforge", "node")


@pytest.fixture
def forks(monkeypatch):
    """Wraps ``os.fork``: each fork records the thread count before it and
    the child's pid, so a silent fall-back to spawning shows as no fork."""
    made: list[tuple[int, int]] = []
    real_fork = os.fork

    def fork():
        threads = threading.active_count()
        pid = real_fork()
        if pid:
            made.append((threads, pid))
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


def bundled_spec(out_dir, n_nodes, algorithm, iterations, watchdog_seconds=60.0):
    return LaunchSpec(n_nodes, algorithm, bundled_sna_path(), iterations=iterations,
                      base_port=free_base_port(n_nodes), watchdog_seconds=watchdog_seconds,
                      out_dir=out_dir)


def launched(spec):
    lines: list[str] = []
    result = launch(spec, echo=lines.append)
    blobs = [node_out_path(spec.out_dir, i).read_bytes() for i in range(spec.n_nodes)]
    return result, sorted(lines), blobs


@needs_fork
@pytest.mark.parametrize("n_nodes,algorithm,iterations,bundled", [
    (3, "centralized", 1, True),
    (2, "decentralized", 3, True),
    (3, "decentralized", 2, False),
], ids=["bundled-star3", "bundled-clique2-iters3", "tiny-clique3-iters2"])
def test_forked_and_spawned_nodes_write_the_same_bytes(tmp_path, monkeypatch, forks,
                                                       n_nodes, algorithm, iterations, bundled):
    data = bundled_sna_path() if bundled else tiny_csv(tmp_path)

    def run(name):
        return launched(LaunchSpec(n_nodes, algorithm, data, iterations=iterations,
                                   base_port=free_base_port(n_nodes), watchdog_seconds=60.0,
                                   out_dir=tmp_path / name))

    forked, forked_lines, forked_blobs = run("forked")
    assert forks == [(1, r.pid) for r in forked.records]  # one thread at every fork
    monkeypatch.delattr(os, "fork")
    spawned, spawned_lines, spawned_blobs = run("spawned")
    assert forked.exit_codes == spawned.exit_codes == [0] * n_nodes
    assert forked_blobs == spawned_blobs
    assert {r.argv[:4] for r in forked.records + spawned.records} == {NODE_COMMAND}
    assert forked_lines == spawned_lines
    assert [line.split(" b0=")[0] for line in forked_lines] == \
        [f"[node {i}] node {i}:" for i in range(n_nodes)]


@needs_fork
def test_forked_run_hit_by_the_watchdog_is_reaped(tmp_path, forks):
    spec = bundled_spec(tmp_path, 3, "centralized", 100_000, watchdog_seconds=1.0)
    start = time.monotonic()
    with pytest.raises(LaunchTimeoutError, match=r"nodes still running: \[0, 1, 2\]"):
        launch(spec, echo=lambda _: None)
    assert time.monotonic() - start < 10.0
    assert len(forks) == 3
    for _, pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@needs_fork
def test_forked_node_fails_as_a_spawned_one_does(tmp_path, monkeypatch, forks):
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "1,Male,nineteen,1,0\n")
    spec = LaunchSpec(2, "centralized", bad, base_port=free_base_port(2), watchdog_seconds=60.0)

    def run():
        lines: list[str] = []
        return launch(spec, echo=lines.append).exit_codes, sorted(lines)

    forked = run()
    assert len(forks) == 2
    monkeypatch.delattr(os, "fork")
    # Both nodes fail on the CSV; the first failure may stop the other first.
    for codes, lines in (forked, run()):
        assert 2 in codes and set(codes) <= {2, -signal.SIGTERM}
        errors = [line for line in lines if "fedforge: error:" in line]
        assert errors and all("line 2" in line for line in errors)
        others = [line for line in lines if line not in errors]
        assert len(others) == 1 and " failed; stopped nodes [" in others[0]


@needs_fork
def test_forked_node_killed_after_the_barrier_ends_the_run(tmp_path, monkeypatch, forks):
    """The star's server dies of SIGKILL once its barrier is done; its clients,
    which would wait for it until the watchdog, are stopped at once."""
    real = cli.fl_centralized

    def fl_centralized(transport, *args, **kwargs):
        if transport.config.node_id == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(transport, *args, **kwargs)

    monkeypatch.setattr(cli, "fl_centralized", fl_centralized)
    spec = bundled_spec(tmp_path, 3, "centralized", 5, watchdog_seconds=5.0)
    lines: list[str] = []
    start = time.monotonic()
    result = launch(spec, echo=lines.append)
    assert time.monotonic() - start < 3.0
    assert len(forks) == 3
    assert result.exit_codes == [-signal.SIGKILL, -signal.SIGTERM, -signal.SIGTERM]
    assert "fedforge: node 0 (signal 9) failed; stopped nodes [1, 2]" in lines


@needs_fork
def test_forked_node_dying_of_an_exception_echoes_its_output_first(tmp_path, monkeypatch, forks):
    """What a node printed before an uncaught exception is echoed, before
    the traceback, though the child leaves through ``os._exit``.  Node 1
    sleeps until node 0's failure stops it."""
    def run_node(args, listener=None):
        if args.node_id == 1:
            time.sleep(60)
        print(f"node {args.node_id} was here")
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_node", run_node)
    spec = LaunchSpec(2, "centralized", tiny_csv(tmp_path), base_port=free_base_port(2),
                      watchdog_seconds=60.0)
    lines: list[str] = []
    assert launch(spec, echo=lines.append).exit_codes == [1, -signal.SIGTERM]
    assert len(forks) == 2
    echoed = [line for line in lines if line.startswith("[node 0] ")]
    assert echoed[:2] == ["[node 0] node 0 was here",
                          "[node 0] Traceback (most recent call last):"]
    assert echoed[-1] == "[node 0] RuntimeError: boom"
    assert lines[-1] == "fedforge: node 0 (exit 1) failed; stopped nodes [1]"
    assert not any(line.startswith("[node 1] ") for line in lines)


@needs_fork
def test_taken_port_fails_before_any_fork(tmp_path, forks, capsys):
    base = free_base_port(3)
    with socket.socket() as taken:
        taken.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        taken.bind((LOCALHOST, base + 1))
        taken.listen()
        start = time.monotonic()
        code = main(["launch", "--nodes", "3", "--algo", "centralized",
                     "--data", str(bundled_sna_path()), "--base-port", str(base)])
        elapsed = time.monotonic() - start
    assert code == EXIT_RUNTIME
    assert elapsed < 2.0
    assert forks == []
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"fedforge: error: cannot bind node 1 to {base + 1}")
    assert all(_bindable(base + i) for i in range(3))  # node 0's listener was closed


@needs_fork
def test_live_thread_means_spawn(tmp_path, forks):
    """Forking with another thread alive could copy a held lock into the child."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        result, _, blobs = launched(bundled_spec(tmp_path, 2, "decentralized", 1))
    finally:
        release.set()
        other.join()
    assert forks == []
    assert result.exit_codes == [0, 0] and blobs[0] == blobs[1]
