"""Point-to-point message passing between node instances on localhost.

Wire format (all integers big-endian):

    [length:4][kind:1][phase:1][src:2][payload:N]

``length`` counts the 4 header bytes after the prefix plus the payload, so a
frame with an empty payload has length 4.  ``kind`` is 0 for HELLO and 1 for
DATA.  HELLO frames carry phase 0 and no payload; DATA frames carry phase 1
or 2 and an opaque payload that is transported verbatim, bit for bit.

Each pair of nodes shares one full-duplex TCP stream, set up by
:func:`start_node` on the calling thread: node i listens on
``base_port + i``, dials every lower id and accepts every higher id.  Each
stream opens with one HELLO each way, the dialer's first, and startup
completes once every peer has answered (the hello barrier).  One ``timeout``
bounds the whole startup, and the listener is closed after the barrier.
HELLO frames are consumed here and never surface to callers.

After the barrier a node runs no thread of its own: its streams turn
non-blocking, and :class:`TcpTransport` does all I/O on the engine's thread.
``recv`` waits in ``select`` on every stream that has not ended, cuts what
arrives into frames and queues their messages in one FIFO inbox, in
per-sender order since each sender's frames arrive on one stream.  A frame
that is not DATA from that very peer fails the stream.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass

from .errors import FedforgeError

HELLO = 0
DATA = 1

DEFAULT_BASE_PORT = 6000
LOCALHOST = "127.0.0.1"

_LEN_PREFIX = struct.Struct(">I")
_HEADER = struct.Struct(">BBH")
_MAX_PAYLOAD = 0xFFFFFFFF - _HEADER.size
_CHUNK = 1 << 18  # most bytes taken from one stream per read


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
    """Startup did not finish within its timeout; the message names the missing peers."""


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

    def check_destination(self, dst: int) -> None:
        """Reject sending to this node itself or to an id outside the run."""
        if not 0 <= dst < self.n_nodes or dst == self.node_id:
            raise ValueError(f"invalid destination {dst}")


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


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read n bytes from a blocking socket; fewer only if the stream ends first."""
    buf = b""
    while len(buf) < n and (chunk := sock.recv(n - len(buf))):
        buf += chunk
    return buf


def read_frame(sock: socket.socket) -> Frame | None:
    """Read one frame from a blocking stream socket; None on clean EOF."""
    data = _recv_exact(sock, _LEN_PREFIX.size)
    if len(data) == _LEN_PREFIX.size:
        data += _recv_exact(sock, _LEN_PREFIX.unpack(data)[0])
    return decode_frame(data) if data else None


class TcpTransport:
    """Live transport handle for one node; see :func:`start_node`.

    Runs no thread: ``send`` and ``recv`` do all I/O on the node's single
    engine flow, and the inbox holds messages and the :class:`TransportError`
    of a failed stream.  ``send`` returns once the whole frame is in the
    kernel; while it does not fit, ``send`` keeps reading every stream, so
    two nodes sending large frames to each other cannot both block.  Above
    the socket buffers a frame thus goes out only while the peer's engine is
    in ``send`` or ``recv``: always so with one process per node, not when
    one thread drives both ends.  ``select`` caps a node near 1,000 streams.
    """

    def __init__(self, config: NodeConfig, peers: dict[int, socket.socket]):
        self.config = config
        self.stats = TransportStats()
        self._peers = peers
        self._inbox: deque[Message | TransportError] = deque()
        # streams that have not ended, each with its peer id and unread bytes
        self._live = {sock: (peer, bytearray()) for peer, sock in peers.items()}

    def _read(self, sock: socket.socket) -> None:
        """Move the complete frames that have arrived on one stream into the inbox."""
        peer, buf = self._live[sock]
        try:
            chunk = sock.recv(_CHUNK)
            if not chunk:  # the stream ended
                if buf:
                    raise FramingError("connection closed mid-frame")
                del self._live[sock]
            buf += chunk
            while len(buf) >= _LEN_PREFIX.size:
                end = _LEN_PREFIX.size + _LEN_PREFIX.unpack_from(buf)[0]
                if len(buf) < end:
                    break
                frame = decode_frame(bytes(buf[:end]))
                del buf[:end]
                if frame.kind != DATA or frame.src != peer:
                    raise ProtocolError(f"frame of kind {frame.kind} with src {frame.src}")
                self.stats.data_received += 1
                self._inbox.append(Message(frame.phase, frame.src, frame.payload))
        except BlockingIOError:  # spurious readiness: nothing arrived
            pass
        except (FramingError, ProtocolError, OSError) as exc:
            self._live.pop(sock, None)
            self._inbox.append(TransportError(f"receive from node {peer} failed: {exc}"))

    def _wait(self, writable: list[socket.socket]) -> None:
        """Wait until a live stream is readable or ``writable`` can take bytes;
        read every readable stream."""
        readable, _, _ = select.select(list(self._live), writable, [])
        for sock in readable:
            self._read(sock)

    def send(self, dst: int, msg: Message) -> None:
        self.config.check_destination(dst)
        sock = self._peers[dst]
        data = memoryview(encode_frame(Frame(DATA, msg.phase, msg.src, msg.payload)))
        try:
            while data:
                try:
                    data = data[sock.send(data):]
                except BlockingIOError:
                    self._wait([sock])
        except OSError as exc:
            raise TransportError(f"send to node {dst} failed: {exc}") from exc
        self.stats.data_sent += 1

    def recv(self) -> Message:
        while not self._inbox:
            if not self._live:
                raise TransportClosedError(f"node {self.config.node_id}: all peers disconnected")
            self._wait([])
        item = self._inbox.popleft()
        if isinstance(item, TransportError):
            raise item
        return item

    def close(self) -> None:
        self._live.clear()
        for sock in self._peers.values():
            sock.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info):
        self.close()


_DIAL_PAUSE = 0.1  # seconds between dials to a peer that does not listen yet


def _left(deadline: float) -> float:
    """Seconds until the startup deadline; TimeoutError once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("startup deadline passed")
    return left


def _connect(port: int, deadline: float) -> socket.socket:
    """Connect to a local port, redialing every ``_DIAL_PAUSE`` until it listens.

    A dial to a port nobody listens on can be given that same port as its
    source port; the SYN then meets itself and the socket connects to
    itself, holding the port its peer must bind.  Such a socket counts as
    "not listening yet".
    """
    while True:
        left = _left(deadline)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(left)
        try:
            sock.connect((LOCALHOST, port))
            if sock.getsockname() != sock.getpeername():
                return sock
            sock.close()
        except OSError:
            sock.close()
        time.sleep(min(_DIAL_PAUSE, _left(deadline)))


def _read_hello(sock: socket.socket) -> int:
    """The node id carried by the HELLO that must come first on a stream."""
    frame = read_frame(sock)
    if frame is None or frame.kind != HELLO:
        raise ProtocolError("stream did not open with a HELLO frame")
    return frame.src


def start_node(config: NodeConfig, timeout: float = 10.0) -> TcpTransport:
    """Connect this node to every peer and return once the hello barrier releases.

    Node i listens on ``base_port + i``, dials every lower id (redialing every
    ``_DIAL_PAUSE`` seconds until that peer listens, so nodes may start in any
    order), then accepts one stream from every higher id.  On each stream the
    dialer sends HELLO first; the acceptor checks the dialer's id (in range,
    above its own, not yet connected) and answers with its own HELLO.  This
    cannot deadlock: a node waits only on lower ids before it accepts, and
    node 0 waits on no one.  ``timeout`` seconds bound the whole startup;
    past it, :class:`StartupTimeoutError` names the peers still missing.  The
    listener is closed before returning, leaving one non-blocking socket per
    peer and no thread.
    """
    deadline = time.monotonic() + timeout
    me = config.node_id
    port = config.base_port + me
    hello = encode_frame(Frame(HELLO, 0, me))
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    opened: list[socket.socket] = []
    peers: dict[int, socket.socket] = {}
    try:
        try:
            listener.bind((LOCALHOST, port))
        except OSError as exc:
            raise TransportError(f"cannot bind node {me} to {port}: {exc}") from exc
        listener.listen(config.n_nodes)
        for peer in range(me):
            sock = _connect(config.base_port + peer, deadline)
            opened.append(sock)
            sock.sendall(hello)
            sock.settimeout(_left(deadline))
            if (src := _read_hello(sock)) != peer:
                raise ProtocolError(f"node {me} dialed node {peer} and got HELLO from {src}")
            peers[peer] = sock
        while len(peers) < config.n_nodes - 1:
            listener.settimeout(_left(deadline))
            sock, _ = listener.accept()
            opened.append(sock)
            sock.settimeout(_left(deadline))
            src = _read_hello(sock)
            if not me < src < config.n_nodes or src in peers:
                raise ProtocolError(f"node {me} got unexpected HELLO from {src}")
            sock.sendall(hello)
            peers[src] = sock
    except TimeoutError as exc:
        missing = sorted(set(config.peers()) - set(peers))
        raise StartupTimeoutError(
            f"node {me} missed hello from {missing} within {timeout:g}s") from exc
    finally:
        listener.close()
        if len(peers) < config.n_nodes - 1:
            for sock in opened:
                sock.close()
    for sock in peers.values():
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpTransport(config, peers)


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


def free_base_port(n_nodes: int, lo: int = 10000, hi: int = 32768) -> int:
    """Pick a base port whose n_nodes-long range lies in [lo, hi) and is
    currently bindable.

    The default range ends where the usual local (ephemeral) port ranges of
    Linux, macOS and Windows begin, so no dial's source port lands in it.
    The starting probe is derived from the pid so concurrent processes tend
    toward disjoint ranges; the free check is best-effort (another process
    can still race for the ports), which is fine for tests and local runs.
    """
    span = hi - lo - n_nodes + 1
    start = (os.getpid() * 997) % span
    for k in range(200):
        base = lo + (start + k * (n_nodes + 3)) % span
        if all(_bindable(base + i) for i in range(n_nodes)):
            return base
    raise TransportError(f"no free range of {n_nodes} ports in [{lo}, {hi})")
