"""The simulated transport must honor per-pair FIFO structurally, follow its
schedule deterministically, and turn every dead end into an error, not a hang."""

import itertools
import time

import pytest

from fedforge.sim import (
    ExplicitSchedule,
    FifoSchedule,
    PhaseTwoFirstSchedule,
    ScheduleError,
    SeededSchedule,
    SimStallError,
    run_nodes,
    sim_transport,
)
from fedforge.engine import CallbackPair, fl_centralized, fl_decentralized
from fedforge.transport import Message, TransportClosedError


def test_single_threaded_delivery():
    a, b = sim_transport(2)
    a.send(1, Message(1, 0, b"hi"))
    a.close()
    assert b.recv() == Message(1, 0, b"hi")
    with pytest.raises(TransportClosedError):
        b.recv()  # sender is done and nothing is in flight
    b.close()


def test_fifo_schedule_is_global_send_order():
    handles = sim_transport(3, FifoSchedule())
    handles[0].send(2, Message(1, 0, b"a"))
    handles[1].send(2, Message(1, 1, b"b"))
    handles[0].send(2, Message(2, 0, b"c"))
    handles[0].close()
    handles[1].close()
    got = [handles[2].recv().payload for _ in range(3)]
    assert got == [b"a", b"b", b"c"]
    net = handles[2]._net
    assert [seq for (_, _, seq, _) in net.delivery_log] == [0, 1, 2]
    handles[2].close()


@pytest.mark.parametrize("slots", list(itertools.combinations(range(4), 2)))
def test_exhaustive_cross_sender_interleavings(slots):
    """All 6 merges of two 2-message streams keep per-sender order."""
    order = []
    next_index = {0: 0, 1: 0}
    for position in range(4):
        src = 0 if position in slots else 1
        order.append((src, 2, next_index[src]))
        next_index[src] += 1
    schedule = ExplicitSchedule(order)

    handles = sim_transport(3, schedule)
    for src in (0, 1):
        for i in range(2):
            handles[src].send(2, Message(1, src, f"{src}:{i}".encode()))
        handles[src].close()
    got = [handles[2].recv().payload.decode() for _ in range(4)]
    handles[2].close()

    assert schedule.entries_consumed == 4
    assert got == [f"{src}:{idx}" for (src, _, idx) in order]
    for src in (0, 1):
        assert [g for g in got if g.startswith(f"{src}:")] == [f"{src}:0", f"{src}:1"]


def test_explicit_schedule_rejects_pair_reorder():
    with pytest.raises(ScheduleError):
        ExplicitSchedule([(0, 1, 1), (0, 1, 0)])
    with pytest.raises(ScheduleError):
        ExplicitSchedule([(0, 1, 0), (0, 1, 0)])  # duplicate delivery
    ExplicitSchedule([(0, 1, 1), (1, 0, 0)])  # distinct pairs are unconstrained


def test_explicit_schedule_falls_back_to_fifo_when_exhausted():
    schedule = ExplicitSchedule([(1, 2, 0)])
    handles = sim_transport(3, schedule)
    handles[0].send(2, Message(1, 0, b"first-sent"))
    handles[1].send(2, Message(1, 1, b"forced-first"))
    handles[0].close()
    handles[1].close()
    got = [handles[2].recv().payload for _ in range(2)]
    handles[2].close()
    assert got == [b"forced-first", b"first-sent"]
    assert schedule.entries_consumed == 1


def test_impossible_explicit_entry_stalls_not_hangs():
    # Entry demands pair message 5, which is never sent: nothing can deliver.
    handles = sim_transport(2, ExplicitSchedule([(0, 1, 5)]))
    handles[0].send(1, Message(1, 0, b"x"))
    handles[0].close()
    with pytest.raises(SimStallError):
        handles[1].recv()
    handles[1].close()


def test_phase_two_first_schedule():
    handles = sim_transport(3, PhaseTwoFirstSchedule())
    handles[0].send(2, Message(1, 0, b"broadcast"))
    handles[1].send(2, Message(2, 1, b"reply"))
    handles[0].close()
    handles[1].close()
    got = [handles[2].recv().phase for _ in range(2)]
    handles[2].close()
    assert got == [2, 1]  # the reply overtakes the earlier broadcast


def test_seeded_schedule_deterministic():
    def run(seed):
        handles = sim_transport(3, SeededSchedule(seed))
        for src in (0, 1):
            for i in range(3):
                handles[src].send(2, Message(1, src, bytes([i])))
            handles[src].close()
        out = [(m.src, m.payload[0]) for m in (handles[2].recv() for _ in range(6))]
        handles[2].close()
        return out

    assert run(7) == run(7)
    runs = {tuple(run(seed)) for seed in range(12)}
    assert len(runs) > 1, "12 seeds never disagreed; schedule is not adversarial"
    for out in runs:  # per-sender order survives every seed
        for src in (0, 1):
            assert [i for s, i in out if s == src] == [0, 1, 2]


def test_mutual_wait_stalls():
    handles = sim_transport(2)

    def node(handle):
        return handle.recv()  # both sides wait forever

    with pytest.raises(SimStallError):
        run_nodes(handles, node)


def test_peer_gone_surfaces_as_closed():
    handles = sim_transport(2)

    def node(handle):
        if handle.config.node_id == 1:
            return "done"
        return handle.recv()

    with pytest.raises(TransportClosedError):
        run_nodes(handles, node)


def test_run_nodes_results_in_id_order():
    handles = sim_transport(3)

    def node(handle):
        me = handle.config.node_id
        nxt = (me + 1) % 3
        handle.send(nxt, Message(1, me, bytes([me])))
        return (me, handle.recv().src)

    results = run_nodes(handles, node)
    assert results == [(0, 2), (1, 0), (2, 1)]


def test_run_nodes_prefers_real_error_over_stall():
    handles = sim_transport(2)

    def node(handle):
        if handle.config.node_id == 0:
            raise ValueError("engine bug")
        return handle.recv()

    with pytest.raises(ValueError, match="engine bug"):
        run_nodes(handles, node)


@pytest.mark.parametrize("rounds", [fl_centralized, fl_decentralized], ids=["star", "clique"])
def test_run_nodes_raises_the_failing_nodes_own_error(rounds):
    """Node 2's callback fails; its peers then fail too, with engine errors
    caused by transport errors, but the callback's error is the one raised."""
    def client_fn(local, private, payload):
        if private == 2:
            raise ValueError("node 2 callback failed")
        return payload

    callbacks = CallbackPair(server_fn=lambda local, private, updates: local,
                             client_fn=client_fn)

    def node(handle):
        return rounds(handle, callbacks, b"m", handle.config.node_id)

    with pytest.raises(ValueError, match="node 2 callback failed"):
        run_nodes(sim_transport(3), node)


def test_sends_are_numbered_in_turn_order_not_thread_timing():
    """Node 0 sleeps before it sends, yet its sends get the lowest ``seq``:
    each node runs until it waits, and nodes start in id order."""
    handles = sim_transport(3, FifoSchedule())

    def node(handle):
        me = handle.config.node_id
        if me == 0:
            time.sleep(0.05)
        for dst in handle.config.peers():
            handle.send(dst, Message(1, me, b""))
        return [handle.recv().src for _ in range(2)]

    assert run_nodes(handles, node) == [[1, 2], [0, 2], [0, 1]]
    log = handles[0]._net.delivery_log
    assert sorted((seq, src) for _, src, seq, _ in log) == \
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)]
