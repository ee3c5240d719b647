"""The simulator's delivery order is pinned, and its terminal states wake
every waiting node promptly.

The digest below was recorded from the simulator as it stood before its
per-node wake-ups replaced one shared condition variable; any change to
which message a schedule is offered, or when, changes it."""

import hashlib
import sys
import threading

from fedforge.engine import CallbackPair, fl_centralized, fl_decentralized
from fedforge.sim import (
    FifoSchedule,
    PhaseTwoFirstSchedule,
    SeededSchedule,
    SimStallError,
    run_nodes,
    sim_transport,
)
from fedforge.transport import TransportClosedError, TransportError

ORDER_DIGEST = "ee3f2c7a44c2571f3097ee9a5d33c5188da5f540e1887b990254a44e7324dec0"


def _mix(*parts: bytes) -> bytes:
    return hashlib.sha256(b"|".join(parts)).digest()[:8]


CALLBACKS = CallbackPair(
    server_fn=lambda private, updates: _mix(private, *updates),
    client_fn=lambda local, private, payload: _mix(local, private, payload),
)


def _schedules():
    yield "fifo", FifoSchedule
    yield "phase2", PhaseTwoFirstSchedule
    for seed in range(40):
        yield f"seeded{seed}", lambda seed=seed: SeededSchedule(seed)


def test_delivery_order_digest():
    """252 runs: n in {2, 3, 4}, star and clique, 4 rounds, 42 schedules."""
    digest = hashlib.sha256()
    for n in (2, 3, 4):
        for algo in (fl_centralized, fl_decentralized):
            for name, make in _schedules():
                handles = sim_transport(n, make())

                def node(handle, algo=algo):
                    me = handle.config.node_id
                    return algo(handle, CALLBACKS, bytes([me]) * 8, bytes([0x80 | me]), 4)

                payloads = run_nodes(handles, node)
                digest.update(repr((n, algo.__name__, name)).encode())
                digest.update(b"".join(payloads))
                digest.update(repr(handles[0]._net.delivery_log).encode())
    assert digest.hexdigest() == ORDER_DIGEST


def _run_bounded(handles, node_fn):
    """``run_nodes`` that must end within 5 s, so a hang fails the test."""
    runner = threading.Thread(target=run_nodes, args=(handles, node_fn), daemon=True)
    runner.start()
    runner.join(timeout=5)
    assert not runner.is_alive()


def _recv_twice(raised):
    """A node function whose two ``recv`` calls must both raise; each
    error is appended to ``raised`` as (node, class, text)."""

    def node(handle):
        for _ in range(2):
            try:
                handle.recv()
            except TransportError as exc:
                raised.append((handle.config.node_id, type(exc), str(exc)))

    return node


def test_stall_wakes_every_waiter():
    """Three nodes that each wait all get the stall, one node at a time in
    id order, and a terminal state stays terminal: the second ``recv``
    raises at once, before the next node runs."""
    raised = []
    _run_bounded(sim_transport(3), _recv_twice(raised))
    text = "nodes [0, 1, 2] wait forever (no deliverable message)"
    assert raised == [(node, SimStallError, text) for node in (0, 0, 1, 1, 2, 2)]


def test_last_waiter_learns_promptly_that_its_peers_are_gone():
    """Nodes 0 and 1 return at once; node 2's ``recv`` then raises, twice."""
    raised = []
    wait = _recv_twice(raised)

    def node(handle):
        if handle.config.node_id == 2:
            wait(handle)

    _run_bounded(sim_transport(3), node)
    text = "node 2: all peers disconnected (nodes 0, 1)"
    assert raised == [(2, TransportClosedError, text)] * 2


def test_delivery_order_survives_preemption():
    """Six node threads on fewer cores, switching every microsecond: the
    same seed must still deliver from the same sources in the same order,
    and every seed must give the same payloads.  The whole delivery log is
    compared, the global send order ``seq`` included, because one node runs
    at a time."""

    def run(seed):
        handles = sim_transport(6, SeededSchedule(seed))

        def node(handle):
            me = handle.config.node_id
            return fl_decentralized(handle, CALLBACKS, bytes([me]) * 8, bytes([me]), 3)

        payloads = run_nodes(handles, node)
        return payloads, handles[0]._net.delivery_log

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            payloads, log = run(seed)
            assert run(seed) == (payloads, log)
            assert payloads == run(seed + 100)[0]
    finally:
        sys.setswitchinterval(interval)
