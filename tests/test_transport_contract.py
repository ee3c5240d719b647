"""One contract for both transports: every test here runs against
``TcpTransport``, over socket pairs, and against the simulator's handles.

In the sim, one thread that drives every handle holds every turn, so
``recv`` never blocks: it returns what the schedule delivers, or raises
at once, a stall while any other handle is still open.  So these tests
close the senders before the receiver reads.  What was written to a
socket-pair end before it closed is still read at the other end, so the
same order works over TCP.
"""

import itertools
import socket

import pytest

from fedforge.sim import sim_transport
from fedforge.transport import (
    Message,
    NodeConfig,
    TcpTransport,
    TransportClosedError,
    TransportError,
)


def tcp_transport(n):
    """n handles, every pair joined by one socket pair; no ports needed."""
    ends = [{} for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        ends[i][j], ends[j][i] = socket.socketpair()
    for sock in itertools.chain.from_iterable(e.values() for e in ends):
        sock.setblocking(False)
    return [TcpTransport(NodeConfig(n_nodes=n, node_id=i), ends[i]) for i in range(n)]


@pytest.fixture(params=[tcp_transport, sim_transport], ids=["tcp", "sim"])
def connect(request):
    """``connect(n)`` gives n connected handles, all closed after the test."""
    made = []

    def connect(n):
        made.extend(request.param(n))
        return made[-n:]

    yield connect
    for handle in made:
        handle.close()


def test_per_pair_fifo_with_the_fields_sent(connect):
    handles = connect(3)
    sent = {src: [Message(1 + i % 2, src, bytes([src, i]) * i) for i in range(20)]
            for src in (0, 1)}
    for src, messages in sent.items():
        for msg in messages:
            handles[src].send(2, msg)
        handles[src].close()
    got = [handles[2].recv() for _ in range(40)]
    for src, messages in sent.items():
        assert [m for m in got if m.src == src] == messages


def test_counters_count_sends_and_returned_recvs(connect):
    a, b = connect(2)
    for phase in (1, 2, 2):
        a.send(1, Message(phase, 0, b"model"))
    a.close()
    counts = []
    for _ in range(3):
        b.recv()
        counts.append(b.stats.data_received)
    assert counts == [1, 2, 3]  # not the frames queued by one read
    assert (a.stats.data_sent, a.stats.data_received, b.stats.data_sent) == (3, 0, 0)


@pytest.mark.parametrize("dst", [0, -1, 2], ids=["self", "below", "above"])
def test_invalid_destination_raises_value_error(connect, dst):
    a, _ = connect(2)
    with pytest.raises(ValueError, match=f"invalid destination {dst}"):
        a.send(dst, Message(1, 0, b""))
    assert a.stats.data_sent == 0


def test_send_and_recv_after_own_close(connect):
    """A closed handle returns no queued message; ``close`` is idempotent."""
    a, b = connect(2)
    b.send(0, Message(1, 1, b"read"))
    b.send(0, Message(1, 1, b"queued"))
    b.close()
    assert a.recv().payload == b"read"
    a.close()
    a.close()
    for _ in range(2):
        with pytest.raises(TransportClosedError, match=r"^node 0: recv on closed transport$"):
            a.recv()
    with pytest.raises(TransportError, match=r"^send to node 1 failed: transport closed$") as failure:
        a.send(1, Message(1, 0, b""))
    assert not isinstance(failure.value, TransportClosedError)


def test_recv_once_every_peer_has_ended(connect):
    """A message sent before its sender closed is still read; then, with
    nothing queued and no peer left, every ``recv`` names the peers."""
    handles = connect(3)
    handles[0].send(2, Message(2, 0, b"last words"))
    handles[0].close()
    handles[1].close()
    assert handles[2].recv() == Message(2, 0, b"last words")
    for _ in range(2):
        with pytest.raises(TransportClosedError,
                           match=r"^node 2: all peers disconnected \(nodes 0, 1\)$"):
            handles[2].recv()
