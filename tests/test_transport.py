"""Wire format down to the byte, then the live TCP behavior: barrier,
handshake checks, FIFO, fidelity, failure modes, and clean port release."""

import hashlib
import itertools
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from fedforge.transport import (
    DATA,
    HELLO,
    Frame,
    FramingError,
    EncodingError,
    Message,
    NodeConfig,
    ProtocolError,
    StartupTimeoutError,
    TransportClosedError,
    TransportError,
    decode_frame,
    encode_frame,
    free_base_port,
    read_frame,
    start_node,
)
import fedforge.transport as transport

valid_frames = st.one_of(
    st.builds(Frame, kind=st.just(HELLO), phase=st.just(0),
              src=st.integers(0, 0xFFFF), payload=st.just(b"")),
    st.builds(Frame, kind=st.just(DATA), phase=st.sampled_from([1, 2]),
              src=st.integers(0, 0xFFFF), payload=st.binary(max_size=64)),
)


def start_all(n, base_port, **kwargs):
    """Start n nodes concurrently and return their handles in id order."""
    configs = [NodeConfig(n_nodes=n, node_id=i, base_port=base_port) for i in range(n)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return [f.result(timeout=10) for f in [pool.submit(start_node, c) for c in configs]]


def close_all(handles):
    for h in handles:
        h.close()


# -- byte layout ----------------------------------------------------------


def test_hello_layout():
    raw = encode_frame(Frame(HELLO, 0, 3))
    assert raw == bytes([0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x03])


def test_data_layout():
    raw = encode_frame(Frame(DATA, 1, 0, b"\xAA"))
    assert raw == bytes([0x00, 0x00, 0x00, 0x05, 0x01, 0x01, 0x00, 0x00, 0xAA])


def test_decode_hello_layout():
    frame = decode_frame(bytes([0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x03]))
    assert frame == Frame(HELLO, 0, 3, b"")


@given(valid_frames)
def test_round_trip(frame):
    assert decode_frame(encode_frame(frame)) == frame


@given(valid_frames)
def test_bytes_round_trip(frame):
    raw = encode_frame(frame)
    assert encode_frame(decode_frame(raw)) == raw


def test_unknown_kind_byte_rejected():
    raw = bytearray(encode_frame(Frame(DATA, 1, 0, b"\xAA")))
    raw[4] = 7
    with pytest.raises(ProtocolError):
        decode_frame(bytes(raw))


def test_truncated_frame_rejected():
    raw = encode_frame(Frame(DATA, 2, 5, b"abcdef"))
    for cut in (0, 3, 7, len(raw) - 1):
        with pytest.raises(FramingError):
            decode_frame(raw[:cut])


def test_length_prefix_mismatch_rejected():
    raw = encode_frame(Frame(DATA, 1, 1, b"xy")) + b"extra"
    with pytest.raises(FramingError):
        decode_frame(raw)


def test_oversized_payload_rejected():
    class _HugeBytes(bytes):
        def __len__(self):
            return 2**32

    with pytest.raises(EncodingError):
        encode_frame(Frame(DATA, 1, 0, _HugeBytes()))


@pytest.mark.parametrize("kind,phase,src,payload", [
    (HELLO, 1, 0, b""),      # hello must be phase 0
    (HELLO, 0, 0, b"x"),     # hello carries no payload
    (DATA, 0, 0, b""),       # data phase is 1 or 2
    (DATA, 3, 0, b""),
    (7, 0, 0, b""),          # unknown kind
    (DATA, 1, 0x10000, b""),  # src must fit 16 bits
    (DATA, 1, -1, b""),
])
def test_frame_invariants(kind, phase, src, payload):
    with pytest.raises(ProtocolError):
        Frame(kind, phase, src, payload)


# -- stream reading -------------------------------------------------------


def test_read_frame_stream_and_eof():
    a, b = socket.socketpair()
    try:
        frames = [Frame(DATA, 1, 2, b"one"), Frame(DATA, 2, 2, b"two")]
        for f in frames:
            a.sendall(encode_frame(f))
        a.close()
        assert read_frame(b) == frames[0]
        assert read_frame(b) == frames[1]
        assert read_frame(b) is None
    finally:
        b.close()


def test_read_frame_mid_frame_eof():
    a, b = socket.socketpair()
    try:
        a.sendall(encode_frame(Frame(DATA, 1, 0, b"payload"))[:-3])
        a.close()
        with pytest.raises(FramingError):
            read_frame(b)
    finally:
        b.close()


def test_read_frame_underdeclared_length():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x02")  # below the 4-byte header minimum
        a.close()
        with pytest.raises(FramingError):
            read_frame(b)
    finally:
        b.close()


# -- live transport -------------------------------------------------------


def test_send_recv_identical_fields(port_for):
    handles = start_all(2, port_for(2))
    try:
        sent = Message(phase=1, src=0, payload=b"\x00\x01\xff model bytes")
        handles[0].send(1, sent)
        assert handles[1].recv() == sent
    finally:
        close_all(handles)


def test_per_pair_fifo(port_for):
    handles = start_all(2, port_for(2))
    try:
        for i in range(20):
            handles[0].send(1, Message(1, 0, bytes([i])))
        got = [handles[1].recv().payload[0] for i in range(20)]
        assert got == list(range(20))
    finally:
        close_all(handles)


@pytest.mark.parametrize("senders", [(0,), (0, 1)], ids=["one-way", "both-ways"])
def test_large_payload_intact(port_for, senders):
    """16 MiB frames, far above the socket buffers; with both nodes sending
    at once, neither may block the other.  Each node runs on its own thread,
    so a deadlock fails the join instead of hanging the suite."""
    size = 16 * 2**20
    blobs = {src: bytes(range(251)) * (size // 251) + bytes([src]) * (size % 251)
             for src in senders}
    handles = start_all(2, port_for(2))
    received: dict = {}

    def node(me):
        if me in blobs:
            handles[me].send(1 - me, Message(2, me, blobs[me]))
        if 1 - me in blobs:
            received[me] = handles[me].recv().payload

    threads = [threading.Thread(target=node, args=(me,), daemon=True) for me in (0, 1)]
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 20
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads), "large frames deadlocked"
        for src, blob in blobs.items():
            got = received[1 - src]
            assert len(got) == size
            assert hashlib.sha256(got).digest() == hashlib.sha256(blob).digest()
    finally:
        close_all(handles)


@pytest.mark.parametrize("n,orders", [
    (3, list(itertools.permutations(range(3)))),
    (5, [(4, 3, 2, 1, 0)]),  # every dial retries until the whole chain listens
], ids=["n3-all-orders", "n5-descending"])
def test_barrier_all_start_orders(port_for, n, orders):
    base = port_for(n)
    for order in orders:
        handles: dict = {}
        threads = []
        for node_id in order:
            cfg = NodeConfig(n_nodes=n, node_id=node_id, base_port=base)
            t = threading.Thread(
                target=lambda c=cfg: handles.__setitem__(c.node_id, start_node(c)))
            t.start()
            threads.append(t)
            time.sleep(0.02)
        for t in threads:
            t.join(timeout=10)
        assert sorted(handles) == list(range(n)), f"barrier stuck for order {order}"
        close_all(handles.values())


def test_no_listener_and_no_thread_after_barrier(port_for):
    base = port_for(3)
    threads_before = threading.active_count()
    handles = start_all(3, base)
    try:
        assert threading.active_count() == threads_before
        for i in range(3):
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", base + i), timeout=1).close()
    finally:
        close_all(handles)


def test_single_node_barrier_immediate(port_for):
    cfg = NodeConfig(n_nodes=1, node_id=0, base_port=port_for(1))
    started = time.monotonic()
    with start_node(cfg) as handle:
        assert time.monotonic() - started < 1.0
        assert handle.config.peers() == []


def test_missing_peer_times_out(port_for):
    cfg = NodeConfig(n_nodes=2, node_id=0, base_port=port_for(2))
    started = time.monotonic()
    with pytest.raises(StartupTimeoutError, match=r"\[1\]"):
        start_node(cfg, timeout=0.3)
    assert time.monotonic() - started < 1.0


def dial_raw(port):
    """A bare socket connected to a node's port, redialed until it listens."""
    deadline = time.monotonic() + 5
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=5)
        except ConnectionRefusedError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


@pytest.mark.parametrize("opening", [
    Frame(DATA, 1, 1, b"early"),  # DATA before any HELLO
    Frame(HELLO, 0, 0),           # claims the acceptor's own id
    Frame(HELLO, 0, 5),           # claims an id outside the run
], ids=["data-first", "hello-as-self", "hello-out-of-range"])
def test_bad_opening_frame_rejected(port_for, opening):
    base = port_for(2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        node = pool.submit(start_node, NodeConfig(n_nodes=2, node_id=0, base_port=base),
                           timeout=3)
        with dial_raw(base) as raw:
            started = time.monotonic()
            raw.sendall(encode_frame(opening))
            with pytest.raises(ProtocolError):
                node.result(timeout=10)
            assert time.monotonic() - started < 1.0


def test_spoofed_src_fails_the_stream(port_for):
    base = port_for(2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        node = pool.submit(start_node, NodeConfig(n_nodes=2, node_id=0, base_port=base),
                           timeout=3)
        with dial_raw(base) as raw:
            raw.sendall(encode_frame(Frame(HELLO, 0, 1)))
            assert read_frame(raw) == Frame(HELLO, 0, 0)
            with node.result(timeout=10) as handle:
                raw.sendall(encode_frame(Frame(DATA, 1, 0, b"spoofed")))
                with pytest.raises(TransportError, match="node 1") as failure:
                    handle.recv()
                assert not isinstance(failure.value, TransportClosedError)


def test_dial_drops_a_self_connected_socket(port_for, monkeypatch):
    """A socket that leaves from the port it dials connects to itself at
    once; the dialer must drop it and redial until the peer listens."""
    port = port_for(1)
    real_socket = socket.socket
    dials, listeners = [], []

    def dial_socket(*args, **kwargs):
        sock = real_socket(*args, **kwargs)
        if not dials:  # the first dial leaves from the port it dials
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
        else:  # the peer listens by the redial
            listener = real_socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            listeners.append(listener)
        dials.append(sock)
        return sock

    monkeypatch.setattr(transport.socket, "socket", dial_socket)
    sock = transport._connect(port, time.monotonic() + 5)
    monkeypatch.undo()
    try:
        assert sock.getsockname() != sock.getpeername()
        assert sock is dials[1] and dials[0].fileno() == -1  # the first one is closed
    finally:
        sock.close()
        for listener in listeners:
            listener.close()


@pytest.mark.parametrize("n", [1, 3, 16])
def test_free_base_port_below_local_port_range(n):
    base = free_base_port(n)
    assert 10000 <= base and base + n <= 32768  # Linux starts its local range at 32768
    assert free_base_port(n, lo=base, hi=base + n) == base


def test_port_already_bound(port_for):
    base = port_for(1)
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        blocker.bind(("127.0.0.1", base))
        blocker.listen(1)
        with pytest.raises(TransportError):
            start_node(NodeConfig(n_nodes=1, node_id=0, base_port=base))
    finally:
        blocker.close()


def test_recv_after_peers_close(port_for):
    handles = start_all(2, port_for(2))
    handles[0].close()
    try:
        with pytest.raises(TransportClosedError):
            handles[1].recv()
        with pytest.raises(TransportClosedError):
            handles[1].recv()  # stays failed
    finally:
        handles[1].close()


def test_buffered_message_readable_after_peer_close(port_for):
    handles = start_all(2, port_for(2))
    try:
        handles[0].send(1, Message(1, 0, b"last words"))
        time.sleep(0.2)  # let the bytes land before the close
        handles[0].close()
        assert handles[1].recv().payload == b"last words"
        with pytest.raises(TransportClosedError):
            handles[1].recv()
    finally:
        handles[1].close()


def test_ports_released_after_close(port_for):
    base = port_for(2)
    for _ in range(2):  # immediate re-launch on the same ports must work
        handles = start_all(2, base)
        handles[0].send(1, Message(1, 0, b"ping"))
        assert handles[1].recv().payload == b"ping"
        close_all(handles)


def test_hello_never_surfaces(port_for):
    handles = start_all(3, port_for(3))
    try:
        handles[2].send(0, Message(2, 2, b"data"))
        got = handles[0].recv()
        assert (got.phase, got.src, got.payload) == (2, 2, b"data")
        assert handles[0].stats.data_received == 1  # hellos not counted either
    finally:
        close_all(handles)


def test_stats_count_data_frames(port_for):
    handles = start_all(2, port_for(2))
    try:
        for _ in range(3):
            handles[0].send(1, Message(1, 0, b""))
        for _ in range(3):
            handles[1].recv()
        assert handles[0].stats.data_sent == 3
        assert handles[0].stats.data_received == 0
        assert handles[1].stats.data_received == 3
    finally:
        close_all(handles)


def test_send_destination_validated(port_for):
    handles = start_all(2, port_for(2))
    try:
        with pytest.raises(ValueError):
            handles[0].send(0, Message(1, 0, b""))  # self
        with pytest.raises(ValueError):
            handles[0].send(2, Message(1, 0, b""))  # out of range
    finally:
        close_all(handles)


def test_node_config_validation():
    with pytest.raises(ValueError):
        NodeConfig(n_nodes=0, node_id=0)
    with pytest.raises(ValueError):
        NodeConfig(n_nodes=2, node_id=2)
    with pytest.raises(ValueError):
        NodeConfig(n_nodes=2, node_id=0, srv_id=5)
    assert NodeConfig(n_nodes=4, node_id=1).peers() == [0, 2, 3]
