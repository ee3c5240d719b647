"""Point-to-point message passing between node instances on localhost.

Wire format (all integers big-endian):

    [length:4][kind:1][phase:1][src:2][payload:N]

``length`` counts the 4 header bytes after the prefix plus the payload, so a
frame with an empty payload has length 4.  ``kind`` is 0 for HELLO and 1 for
DATA.  HELLO frames carry phase 0 and no payload; DATA frames carry phase 1
or 2 and an opaque payload that is transported verbatim, bit for bit.
One header struct and one set of header rules serve :class:`Frame`,
:func:`encode_frame`, :func:`decode_frame` and the live transport alike.

Each pair of nodes shares one full-duplex TCP stream, set up by
:func:`start_node` on the calling thread: node i listens on
``base_port + i``, dials every lower id and accepts every higher id.  Each
stream opens with one HELLO each way, the dialer's first, and startup
completes once every peer has answered (the hello barrier).  One ``timeout``
bounds the whole startup, and the listener is closed after the barrier.
HELLO frames are consumed here and never surface to callers.

After the barrier a node runs no thread of its own: its streams turn
non-blocking, and :class:`TcpTransport` does all I/O on the engine's thread.
``recv`` waits in ``select`` on every stream that has not ended, appends
what it reads to that stream's buffer, parses the frames in place there
and queues their messages in one FIFO inbox, in per-sender order since
each sender's frames arrive on one stream.  No :class:`Frame` is built for
a DATA message.  A frame that is not DATA from that very peer fails the
stream.  :class:`fedforge.sim.SimTransport` keeps this module's contract,
error texts included, and ``tests/test_transport_contract.py`` tests both.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time
from collections import deque

from .errors import FedforgeError
from .values import Frozen, Value, set_field, set_fields

HELLO = 0
DATA = 1

DEFAULT_BASE_PORT = 6000
LOCALHOST = "127.0.0.1"

_FRAME = struct.Struct(">IBBH")  # length, kind, phase, src
_PREFIX = 4  # bytes of the length field, which counts the bytes after it
_HEADER = _FRAME.size - _PREFIX  # kind, phase and src: the least a length can say
_MAX_PAYLOAD = 0xFFFFFFFF - _HEADER
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
    """``recv`` after every peer ended with nothing queued, or after ``close``."""


class StartupTimeoutError(TransportError):
    """Startup did not finish within its timeout; the message names the missing peers."""


class NodeConfig(Frozen):
    """Static per-run identity and topology of one node; node i listens on
    ``base_port + i``."""

    __slots__ = ("n_nodes", "node_id", "srv_id", "base_port")

    def __init__(self, n_nodes: int, node_id: int, srv_id: int = 0,
                 base_port: int = DEFAULT_BASE_PORT):
        set_fields(self, n_nodes, node_id, srv_id, base_port)
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


class Frame(Frozen):
    """One wire-level unit; invariants are checked at construction."""

    __slots__ = ("kind", "phase", "src", "payload")

    def __init__(self, kind: int, phase: int, src: int, payload: bytes = b""):
        set_fields(self, kind, phase, src, payload)
        _check_header(kind, phase, src, len(payload))


class Message(Frozen):
    """A delivered DATA frame as seen by the protocol engine."""

    __slots__ = ("phase", "src", "payload")

    def __init__(self, phase: int, src: int, payload: bytes):
        set_field(self, "phase", phase)
        set_field(self, "src", src)
        set_field(self, "payload", payload)


class TransportStats(Value):
    """DATA messages counted as ``send`` and ``recv`` return them."""

    __slots__ = ("data_sent", "data_received")

    def __init__(self, data_sent: int = 0, data_received: int = 0):
        set_fields(self, data_sent, data_received)


def _check_header(kind: int, phase: int, src: int, payload_size: int) -> None:
    """The header rules of every frame: built, encoded, sent or read."""
    if kind == DATA:
        if phase not in (1, 2):
            raise ProtocolError(f"DATA phase must be 1 or 2, got {phase}")
    elif kind == HELLO:
        if phase != 0 or payload_size:
            raise ProtocolError("HELLO frames carry phase 0 and no payload")
    else:
        raise ProtocolError(f"unknown frame kind {kind}")
    if not 0 <= src <= 0xFFFF:
        raise ProtocolError(f"src {src} does not fit in 16 bits")


def _pack(kind: int, phase: int, src: int, payload: bytes) -> bytes:
    """The wire bytes of one frame, length prefix included."""
    _check_header(kind, phase, src, len(payload))
    if len(payload) > _MAX_PAYLOAD:
        raise EncodingError(f"payload of {len(payload)} bytes exceeds frame limit")
    return _FRAME.pack(_HEADER + len(payload), kind, phase, src) + payload


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame, length prefix included."""
    return _pack(frame.kind, frame.phase, frame.src, frame.payload)


def decode_frame(data: bytes) -> Frame:
    """Inverse of :func:`encode_frame` for one complete frame."""
    if len(data) < _FRAME.size:
        raise FramingError(f"frame truncated: got {len(data)} bytes")
    length, kind, phase, src = _FRAME.unpack_from(data)
    if len(data) != _PREFIX + length:
        raise FramingError(
            f"frame length mismatch: prefix says {length}, have {len(data) - _PREFIX}"
        )
    return Frame(kind, phase, src, data[_FRAME.size:])


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

    ``send`` packs the header struct and appends the payload in one
    expression.  Every read lands in one preallocated buffer and is
    appended to its stream's buffer, where the frames are parsed in place
    with the same header struct: each message costs two copies of its
    payload, and only an incomplete last frame is kept for the next read.
    """

    def __init__(self, config: NodeConfig, peers: dict[int, socket.socket]):
        self.config = config
        self.stats = TransportStats()
        self._peers = peers
        self._inbox: deque[Message | TransportError] = deque()
        # streams that have not ended, each with its peer id and unread bytes
        self._live = {sock: (peer, bytearray()) for peer, sock in peers.items()}
        # every read lands here first: a fresh bytes object as large as
        # _CHUNK per read would cost an mmap and munmap in glibc malloc
        self._chunk = memoryview(bytearray(_CHUNK))
        # what recv raises once no stream is left; close replaces it
        peer_ids = ", ".join(map(str, config.peers()))
        self._ended = f"node {config.node_id}: all peers disconnected (nodes {peer_ids})"

    def _read(self, sock: socket.socket) -> None:
        """Move the complete frames that have arrived on one stream into the inbox.

        The new bytes are appended to the stream's own buffer, and the
        frames are parsed where they lie there.  Only an incomplete last
        frame is kept for the next read."""
        peer, buf = self._live[sock]
        try:
            size = sock.recv_into(self._chunk)
            if not size:  # the stream ended
                if buf:
                    raise FramingError("connection closed mid-frame")
                del self._live[sock]
                return
            buf += self._chunk[:size]
            with memoryview(buf) as view:
                used = self._parse(view, len(buf), peer)
            del buf[:used]
        except BlockingIOError:  # spurious readiness: nothing arrived
            pass
        except (FramingError, ProtocolError, OSError) as exc:
            self._live.pop(sock, None)
            self._inbox.append(TransportError(f"receive from node {peer} failed: {exc}"))

    def _parse(self, view: memoryview, end: int, peer: int) -> int:
        """Queue the messages of the complete frames in ``view[:end]``, which
        came from ``peer``; return how many bytes they take."""
        pos = 0
        while end - pos >= _FRAME.size:
            length, kind, phase, src = _FRAME.unpack_from(view, pos)
            stop = pos + _PREFIX + length
            if stop > end or length < _HEADER:
                break
            _check_header(kind, phase, src, length - _HEADER)
            if kind != DATA or src != peer:
                raise ProtocolError(f"frame of kind {kind} with src {src}")
            self._inbox.append(Message(phase, src, view[pos + _FRAME.size:stop].tobytes()))
            pos = stop
        # a length below the header fails once its 4 bytes are in
        if end - pos >= _PREFIX and int.from_bytes(view[pos:pos + _PREFIX], "big") < _HEADER:
            raise FramingError(f"frame length below the {_HEADER}-byte header")
        return pos

    def _wait(self, writable: list[socket.socket]) -> None:
        """Wait until a live stream is readable or ``writable`` can take bytes;
        read every readable stream."""
        readable, _, _ = select.select(list(self._live), writable, [])
        for sock in readable:
            self._read(sock)

    def send(self, dst: int, msg: Message) -> None:
        self.config.check_destination(dst)
        sock = self._peers[dst]
        data = _pack(DATA, msg.phase, msg.src, msg.payload)
        try:
            while True:
                try:
                    sent = sock.send(data)
                except BlockingIOError:
                    self._wait([sock])
                    continue
                if sent == len(data):
                    break
                data = memoryview(data)[sent:]
        except OSError as exc:
            reason = "transport closed" if sock.fileno() == -1 else exc  # -1: close() ran
            raise TransportError(f"send to node {dst} failed: {reason}") from exc
        self.stats.data_sent += 1

    def recv(self) -> Message:
        while not self._inbox:
            if not self._live:
                raise TransportClosedError(self._ended)
            self._wait([])
        item = self._inbox.popleft()
        if isinstance(item, TransportError):
            raise item
        self.stats.data_received += 1
        return item

    def close(self) -> None:
        self._ended = f"node {self.config.node_id}: recv on closed transport"
        self._live.clear()
        self._inbox.clear()
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
    """The node id carried by the HELLO that must come first on a stream.

    A HELLO is a bare header, so exactly its 8 bytes are read: any other
    length, kind or phase, or a stream that ends first, fails at once."""
    data = b""
    while len(data) < _FRAME.size and (chunk := sock.recv(_FRAME.size - len(data))):
        data += chunk
    if len(data) == _FRAME.size:
        length, kind, phase, src = _FRAME.unpack(data)
        if (length, kind, phase) == (_HEADER, HELLO, 0):
            return src
    raise ProtocolError("stream did not open with a HELLO frame")


def bind_listener(config: NodeConfig) -> socket.socket:
    """A socket listening on this node's port, ``base_port + node_id``."""
    port = config.base_port + config.node_id
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((LOCALHOST, port))
    except OSError as exc:
        listener.close()
        raise TransportError(f"cannot bind node {config.node_id} to {port}: {exc}") from exc
    listener.listen(config.n_nodes)
    return listener


def start_node(config: NodeConfig, timeout: float = 10.0,
               listener: socket.socket | None = None) -> TcpTransport:
    """Connect this node to every peer and return once the hello barrier releases.

    Node i listens on ``base_port + i``, dials every lower id (redialing every
    ``_DIAL_PAUSE`` seconds until that peer listens, so nodes may start in any
    order), then accepts one stream from every higher id.  On each stream the
    dialer sends HELLO first; the acceptor checks the dialer's id (in range,
    above its own, not yet connected) and answers with its own HELLO.  This
    cannot deadlock: a node waits only on lower ids before it accepts, and
    node 0 waits on no one.  ``timeout`` seconds bound the whole startup;
    past it, :class:`StartupTimeoutError` names the peers still missing.  A
    stream that breaks first raises :class:`TransportError` naming the peer,
    or the dialer's address before its HELLO is read.  The listener is closed
    before returning, leaving one non-blocking socket per peer and no thread.
    A ``listener`` from :func:`bind_listener` is used instead of binding one
    here, and closed all the same.
    """
    deadline = time.monotonic() + timeout
    me = config.node_id
    hello = encode_frame(Frame(HELLO, 0, me))
    opened: list[socket.socket] = []
    peers: dict[int, socket.socket] = {}
    listener = listener or bind_listener(config)
    try:
        for peer in range(me):
            who = f"node {peer}"
            sock = _connect(config.base_port + peer, deadline)
            opened.append(sock)
            sock.sendall(hello)
            sock.settimeout(_left(deadline))
            if (src := _read_hello(sock)) != peer:
                raise ProtocolError(f"node {me} dialed node {peer} and got HELLO from {src}")
            peers[peer] = sock
        while len(peers) < config.n_nodes - 1:
            who = "a dialer"
            listener.settimeout(_left(deadline))
            sock, (host, port) = listener.accept()
            who = f"the dialer at {host}:{port}"
            opened.append(sock)
            sock.settimeout(_left(deadline))
            src = _read_hello(sock)
            if not me < src < config.n_nodes or src in peers:
                raise ProtocolError(f"node {me} got unexpected HELLO from {src}")
            who = f"node {src}"
            sock.sendall(hello)
            peers[src] = sock
    except TimeoutError as exc:
        missing = sorted(set(config.peers()) - set(peers))
        raise StartupTimeoutError(
            f"node {me} missed hello from {missing} within {timeout:g}s") from exc
    except OSError as exc:  # a reset or broken barrier stream
        raise TransportError(f"node {me} lost {who} in the hello barrier: {exc}") from exc
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
