"""The simulator's delivery order is pinned, and its terminal states wake
every waiting node promptly.

The digest below was recorded from the simulator as it stood before its
per-node wake-ups replaced one shared condition variable; any change to
which message a schedule is offered, or when, changes it."""

import hashlib
import sys
import threading
import time

from fedforge.engine import CallbackPair, fl_centralized, fl_decentralized
from fedforge.sim import (
    FifoSchedule,
    PhaseTwoFirstSchedule,
    SeededSchedule,
    SimStallError,
    run_nodes,
    sim_transport,
)
from fedforge.transport import TransportClosedError

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


def _recv_in_threads(handles, closers=()):
    """Call ``recv`` on every handle from its own thread, then close
    ``closers`` from this one; return each receiver's exception and the
    seconds it waited."""
    outcomes = {}

    def wait(handle):
        t0 = time.monotonic()
        try:
            handle.recv()
        except Exception as exc:  # noqa: BLE001 - inspected below
            outcomes[handle.config.node_id] = (exc, time.monotonic() - t0)

    threads = [threading.Thread(target=wait, args=(h,), daemon=True) for h in handles]
    for t in threads:
        t.start()
    time.sleep(0.05)  # let the receivers block before their peers leave
    for handle in closers:
        handle.close()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    return outcomes


def test_stall_wakes_every_waiter():
    handles = sim_transport(3)
    outcomes = _recv_in_threads(handles)
    assert sorted(outcomes) == [0, 1, 2]
    for exc, waited in outcomes.values():
        assert isinstance(exc, SimStallError)
        assert waited < 0.4
    for handle in handles:  # a terminal state stays terminal, one recv at a time
        exc, waited = _recv_in_threads([handle])[handle.config.node_id]
        assert isinstance(exc, SimStallError)
        assert waited < 0.05
    for handle in handles:
        handle.close()


def test_last_waiter_learns_promptly_that_its_peers_are_gone():
    *peers, last = sim_transport(3)
    outcomes = _recv_in_threads([last], closers=peers)
    exc, waited = outcomes[2]
    assert isinstance(exc, TransportClosedError)
    assert waited < 0.4
    exc, waited = _recv_in_threads([last])[2]  # a terminal state stays terminal
    assert isinstance(exc, TransportClosedError)
    assert waited < 0.05
    last.close()


def test_delivery_order_survives_preemption():
    """Six node threads on fewer cores, switching every microsecond: the
    same seed must still deliver from the same sources in the same order,
    and every seed must give the same payloads.  The global send order
    ``seq`` is left out, because nodes that run at the same time (all of
    them, at the start) number their sends in thread-timing order."""

    def run(seed):
        handles = sim_transport(6, SeededSchedule(seed))

        def node(handle):
            me = handle.config.node_id
            return fl_decentralized(handle, CALLBACKS, bytes([me]) * 8, bytes([me]), 3)

        payloads = run_nodes(handles, node)
        return payloads, [(dst, src, phase) for dst, src, _, phase in handles[0]._net.delivery_log]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            payloads, log = run(seed)
            assert run(seed) == (payloads, log)
            assert payloads == run(seed + 100)[0]
    finally:
        sys.setswitchinterval(interval)
