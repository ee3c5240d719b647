"""Point-to-point message passing between node instances on localhost.

Wire format (all integers big-endian):

    [length:4][kind:1][phase:1][src:2][payload:N]

``length`` counts the 4 header bytes after the prefix plus the payload, so a
frame with an empty payload has length 4.  ``kind`` is 0 for HELLO and 1 for
DATA.  HELLO frames carry phase 0 and no payload; DATA frames carry phase 1
or 2 and an opaque payload that is transported verbatim, bit for bit.

Each node binds one listener at ``base_port + node_id`` and dials every peer,
so a pair of nodes is connected by two TCP streams, one per direction.  A
node's startup completes only after it has exchanged HELLO frames with every
peer (the hello barrier); HELLO frames are consumed here and never surface to
callers.  Received DATA frames are queued into a single FIFO inbox, which
preserves per-sender order because each sender's frames arrive on one stream
read by one thread.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
import queue
from dataclasses import dataclass, field

from .errors import FedforgeError

HELLO = 0
DATA = 1

DEFAULT_BASE_PORT = 6000
LOCALHOST = "127.0.0.1"

_LEN_PREFIX = struct.Struct(">I")
_HEADER = struct.Struct(">BBH")
_MAX_PAYLOAD = 0xFFFFFFFF - _HEADER.size


class EncodingError(FedforgeError):
    """Frame cannot be put on the wire (oversized payload)."""


class FramingError(FedforgeError):
    """Byte stream does not contain a complete well-formed frame."""


class ProtocolError(FedforgeError):
    """Frame or message violates the protocol rules."""


class TransportError(FedforgeError):
    """Connection-level failure while sending or receiving."""


class TransportClosedError(TransportError):
    """All peers disconnected and no queued messages remain."""


class StartupTimeoutError(TransportError):
    """A peer could not be reached within the startup retry budget."""


@dataclass(frozen=True)
class NodeConfig:
    """Static per-run identity and topology of one node; node i listens on
    ``base_port + i``."""

    n_nodes: int
    node_id: int
    srv_id: int = 0
    base_port: int = DEFAULT_BASE_PORT

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"node count must be >= 1, got {self.n_nodes}")
        if not 0 <= self.node_id < self.n_nodes:
            raise ValueError(f"node id {self.node_id} outside [0, {self.n_nodes})")
        if not 0 <= self.srv_id < self.n_nodes:
            raise ValueError(f"server id {self.srv_id} outside [0, {self.n_nodes})")
        last_port = self.base_port + self.n_nodes - 1
        if self.base_port < 1024 or last_port > 65535:
            raise ValueError(f"ports {self.base_port}..{last_port} outside [1024, 65535]")

    def peers(self) -> list[int]:
        return [i for i in range(self.n_nodes) if i != self.node_id]


@dataclass(frozen=True)
class Frame:
    """One wire-level unit; invariants are checked at construction."""

    kind: int
    phase: int
    src: int
    payload: bytes = b""

    def __post_init__(self):
        if self.kind == HELLO:
            if self.phase != 0 or self.payload:
                raise ProtocolError("HELLO frames carry phase 0 and no payload")
        elif self.kind == DATA:
            if self.phase not in (1, 2):
                raise ProtocolError(f"DATA phase must be 1 or 2, got {self.phase}")
        else:
            raise ProtocolError(f"unknown frame kind {self.kind}")
        if not 0 <= self.src <= 0xFFFF:
            raise ProtocolError(f"src {self.src} does not fit in 16 bits")


@dataclass(frozen=True)
class Message:
    """A delivered DATA frame as seen by the protocol engine."""

    phase: int
    src: int
    payload: bytes


@dataclass
class TransportStats:
    """DATA traffic counters, used by protocol-cost assertions in tests."""

    data_sent: int = 0
    data_received: int = 0


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame, length prefix included."""
    if len(frame.payload) > _MAX_PAYLOAD:
        raise EncodingError(f"payload of {len(frame.payload)} bytes exceeds frame limit")
    header = _HEADER.pack(frame.kind, frame.phase, frame.src)
    return _LEN_PREFIX.pack(_HEADER.size + len(frame.payload)) + header + bytes(frame.payload)


def decode_frame(data: bytes) -> Frame:
    """Inverse of :func:`encode_frame` for one complete frame."""
    if len(data) < _LEN_PREFIX.size + _HEADER.size:
        raise FramingError(f"frame truncated: got {len(data)} bytes")
    (length,) = _LEN_PREFIX.unpack_from(data, 0)
    if len(data) != _LEN_PREFIX.size + length:
        raise FramingError(
            f"frame length mismatch: prefix says {length}, have {len(data) - _LEN_PREFIX.size}"
        )
    kind, phase, src = _HEADER.unpack_from(data, _LEN_PREFIX.size)
    payload = data[_LEN_PREFIX.size + _HEADER.size :]
    return Frame(kind=kind, phase=phase, src=src, payload=payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly n bytes; None on clean EOF at a frame boundary."""
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise FramingError("connection closed mid-frame")
            return None
        buf += chunk
    return buf


def read_frame(sock: socket.socket) -> Frame | None:
    """Read one frame from a stream socket; None on clean EOF."""
    prefix = _recv_exact(sock, _LEN_PREFIX.size)
    if prefix is None:
        return None
    (length,) = _LEN_PREFIX.unpack(prefix)
    if length < _HEADER.size:
        raise FramingError(f"declared frame length {length} below header size")
    rest = _recv_exact(sock, length)
    if rest is None:
        raise FramingError("connection closed mid-frame")
    kind, phase, src = _HEADER.unpack_from(rest, 0)
    return Frame(kind=kind, phase=phase, src=src, payload=rest[_HEADER.size :])


class _Closed:
    """Inbox sentinel: every producer connection has terminated."""


_CLOSED = _Closed()


@dataclass
class _Failure:
    """Inbox token carrying a receive-side error into the consumer flow."""

    error: Exception = field(default_factory=lambda: TransportError("receive failed"))


class TcpTransport:
    """Live transport handle for one node; see :func:`start_node`.

    ``send`` must be called from the node's single engine flow only.  The
    inbox queue is the sole channel between the receiver threads and that
    flow.
    """

    def __init__(self, config: NodeConfig):
        self.config = config
        self.stats = TransportStats()
        self._inbox: queue.Queue = queue.Queue()
        self._out: dict[int, socket.socket] = {}
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._inbound: list[socket.socket] = []
        self._lock = threading.Lock()
        self._hello_seen: set[int] = set()
        self._hello_cond = threading.Condition(self._lock)
        self._live_readers = 0
        self._closed = False

    # -- startup ----------------------------------------------------------

    def _bind(self):
        port = self.config.base_port + self.config.node_id
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((LOCALHOST, port))
        except OSError as exc:
            listener.close()
            raise TransportError(f"cannot bind node {self.config.node_id} to {port}: {exc}") from exc
        listener.listen(self.config.n_nodes)
        self._listener = listener

    def _accept_loop(self):
        expected = self.config.n_nodes - 1
        accepted = 0
        assert self._listener is not None
        while accepted < expected:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._inbound.append(conn)
                self._live_readers += 1
            reader = threading.Thread(target=self._reader_loop, args=(conn,), daemon=True)
            reader.start()
            self._threads.append(reader)
            accepted += 1
        self._listener.close()

    def _reader_loop(self, conn: socket.socket):
        try:
            while True:
                frame = read_frame(conn)
                if frame is None:
                    break
                if frame.src >= self.config.n_nodes:
                    raise ProtocolError(f"frame from unknown node id {frame.src}")
                if frame.kind == HELLO:
                    with self._hello_cond:
                        self._hello_seen.add(frame.src)
                        self._hello_cond.notify_all()
                else:
                    with self._lock:
                        self.stats.data_received += 1
                    self._inbox.put(Message(frame.phase, frame.src, frame.payload))
        except (FramingError, ProtocolError, OSError) as exc:
            with self._lock:
                dying = self._closed
            if not dying:
                self._inbox.put(_Failure(TransportError(f"receive failed: {exc}")))
        finally:
            with self._hello_cond:
                self._live_readers -= 1
                if self._live_readers == 0:
                    self._inbox.put(_CLOSED)
                self._hello_cond.notify_all()

    def _connect_all(self, attempts: int, delay: float):
        for peer in self.config.peers():
            port = self.config.base_port + peer
            last_error: Exception | None = None
            sock = None
            for _ in range(attempts):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                try:
                    sock.connect((LOCALHOST, port))
                    break
                except OSError as exc:
                    last_error = exc
                    sock.close()
                    sock = None
                    time.sleep(delay)
            if sock is None:
                raise StartupTimeoutError(
                    f"node {self.config.node_id} could not reach peer {peer} "
                    f"on port {port} after {attempts} attempts: {last_error}"
                )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._out[peer] = sock
            sock.sendall(encode_frame(Frame(HELLO, 0, self.config.node_id)))

    def _await_hellos(self, timeout: float):
        peers = set(self.config.peers())
        with self._hello_cond:
            ok = self._hello_cond.wait_for(lambda: self._hello_seen >= peers, timeout=timeout)
        if not ok:
            missing = sorted(peers - self._hello_seen)
            raise StartupTimeoutError(
                f"node {self.config.node_id} missed hello from {missing} within {timeout:.1f}s"
            )

    # -- steady state -----------------------------------------------------

    def send(self, dst: int, msg: Message) -> None:
        if not 0 <= dst < self.config.n_nodes or dst == self.config.node_id:
            raise ValueError(f"invalid destination {dst}")
        frame = Frame(DATA, msg.phase, msg.src, msg.payload)
        try:
            self._out[dst].sendall(encode_frame(frame))
        except OSError as exc:
            raise TransportError(f"send to node {dst} failed: {exc}") from exc
        self.stats.data_sent += 1

    def recv(self) -> Message:
        item = self._inbox.get()
        if item is _CLOSED:
            self._inbox.put(item)  # keep later recv calls failing too
            raise TransportClosedError(f"node {self.config.node_id}: all peers disconnected")
        if isinstance(item, _Failure):
            raise item.error
        return item

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # shutdown() before close() wakes threads blocked in recv()/accept();
        # a bare close() can leave them stuck until their join timeout.
        for sock in [*self._out.values(), self._listener, *self._inbound]:
            if sock is None:
                continue
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info):
        self.close()


def start_node(
    config: NodeConfig,
    connect_attempts: int = 30,
    connect_delay: float = 0.1,
) -> TcpTransport:
    """Bind, connect to all peers, and block until the hello barrier releases.

    Connection attempts to each peer are retried ``connect_attempts`` times,
    ``connect_delay`` seconds apart, so nodes may be started in any order.
    The hello wait reuses the same time budget once dialing succeeded.
    """
    transport = TcpTransport(config)
    try:
        transport._bind()
        acceptor = threading.Thread(target=transport._accept_loop, daemon=True)
        acceptor.start()
        transport._threads.append(acceptor)
        transport._connect_all(connect_attempts, connect_delay)
        transport._await_hellos(timeout=connect_attempts * connect_delay + 2.0)
    except Exception:
        transport.close()
        raise
    return transport


def _bindable(port: int) -> bool:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        probe.bind((LOCALHOST, port))
        return True
    except OSError:
        return False
    finally:
        probe.close()


def free_base_port(n_nodes: int, lo: int = 20000, hi: int = 60000) -> int:
    """Pick a base port whose n_nodes-long range is currently bindable.

    The starting probe is derived from the pid so concurrent processes tend
    toward disjoint ranges; the free check is best-effort (another process
    can still race for the ports), which is fine for tests and local runs.
    """
    span = hi - lo
    start = (os.getpid() * 997) % span
    for k in range(200):
        base = lo + (start + k * (n_nodes + 3)) % span
        if base + n_nodes >= 65536:
            continue
        if all(_bindable(base + i) for i in range(n_nodes)):
            return base
    raise TransportError(f"no free range of {n_nodes} ports in [{lo}, {hi})")
