"""Generic federated-learning rounds over a message transport.

One executor runs every topology.  A round is described by its set of
broadcasters: a node in the set broadcasts its localData to every peer and
collects every peer's reply; every node serves the broadcasts of every
*other* broadcaster.  ``fl_centralized`` runs a star, where only the server
broadcasts; ``fl_decentralized`` runs a clique, where every node does.

Each round has three phases:

* phase 1 - a broadcaster sends localData to its peers (ascending id order),
* phase 2 - for each incoming broadcast, reply with
  ``client_fn(localData, privateData, payload)``,
* phase 3 - a broadcaster collects the replies and sets
  ``localData = server_fn(privateData, updates)``.

What the callbacks see is deterministic regardless of network timing:
``client_fn`` always reads the localData snapshot taken at round start, and
``server_fn`` always receives the peers' updates sorted by ascending source
id.  A reply that arrives while the node is still serving broadcasts is
buffered until phase 3.  A node that collects nothing (a star client)
adopts its last reply as its new localData, but only after the reply is on
the wire.

Rounds after the first reuse the previous round's output as the new
broadcast payload.  The executor blocks indefinitely on missing peers;
the process launcher stops a run at its first failed node or its watchdog.

The protocol rules live in ``_run_rounds``: each message is checked in the
branch that serves it, holds it for the next round or stores it as an
update, and a violation raises ``ProtocolError``.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import FedforgeError
from .transport import Message, NodeConfig, ProtocolError, TransportError
from .values import Frozen, set_fields

# client_fn(local_data, private_data, payload) -> update payload
ClientFn = Callable[[bytes, object, bytes], bytes]
# server_fn(private_data, updates) -> new local_data payload
ServerFn = Callable[[object, list[bytes]], bytes]


class EngineError(FedforgeError):
    """A round could not complete; the message names iteration and phase."""


class CallbackPair(Frozen):
    """The two application plug-ins a round is parameterized by."""

    __slots__ = ("server_fn", "client_fn")

    def __init__(self, server_fn: ServerFn, client_fn: ClientFn):
        set_fields(self, server_fn, client_fn)


def fl_centralized(transport, callbacks: CallbackPair, local_data: bytes,
                   private_data, iterations: int = 1) -> bytes:
    """Run the star-topology rounds; returns this node's final localData.

    Only ``srv_id`` broadcasts.  The server returns the aggregate; every
    other node is a client and returns its last update.  All nodes must call
    this with the same node count, server id, and iteration count.
    """
    return _run_rounds(transport, callbacks, local_data, private_data,
                       iterations, {transport.config.srv_id})


def fl_decentralized(transport, callbacks: CallbackPair, local_data: bytes,
                     private_data, iterations: int = 1) -> bytes:
    """Run the clique-topology rounds; returns this node's final localData.

    Every node broadcasts its own localData, serves every peer's broadcast,
    and aggregates the replies to its own.  The configured server id is
    ignored.
    """
    return _run_rounds(transport, callbacks, local_data, private_data,
                       iterations, range(transport.config.n_nodes))


def check_run(config: NodeConfig, iterations: int) -> None:
    """Run-level rules: at least 2 nodes and at least one round.  Node id,
    server id and port range belong to ``NodeConfig``; the algorithm and the
    watchdog to ``LaunchSpec``."""
    if config.n_nodes < 2:
        raise ValueError(f"a run needs at least 2 nodes, got {config.n_nodes}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")


def _recv(transport, iteration: int, phase: int) -> Message:
    try:
        return transport.recv()
    except TransportError as exc:
        raise EngineError(
            f"iteration {iteration}, phase {phase}: transport failed: {exc}"
        ) from exc


def _send(transport, dst: int, msg: Message, iteration: int, phase: int) -> None:
    try:
        transport.send(dst, msg)
    except TransportError as exc:  # a transport's send error names its destination
        raise EngineError(f"iteration {iteration}, phase {phase}: {exc}") from exc


def _run_rounds(transport, callbacks, local_data, private_data, iterations,
                broadcasters):
    """The round loop; each message is checked where it is acted on.

    A phase-1 broadcast from a source already served this round is legal in
    exactly one situation: the sender finished the round first and opened
    the next one.  Per-pair FIFO ordering means its reply to us was
    delivered before that broadcast, and it cannot get further ahead than
    one round because finishing again would require our own reply.  Such a
    broadcast is held and served at the start of the next round; when no
    next round exists, or one is already held from that source, it is a
    duplicate.  Any other broadcast must come from a broadcaster, and an
    update from a target, at most once per round.
    """
    cfg = transport.config
    check_run(cfg, iterations)
    me = cfg.node_id
    targets = cfg.peers() if me in broadcasters else []  # broadcast to, collect from
    serves = frozenset(broadcasters) - {me}
    collects = frozenset(targets)
    held: dict[int, Message] = {}
    for it in range(iterations):
        snapshot = local_data
        for dst in targets:
            _send(transport, dst, Message(1, me, snapshot), it, 1)
        # Broadcasts held from the previous round are served first.
        pending, held = list(held.values()), {}
        served: set[int] = set()
        updates: dict[int, bytes] = {}
        while len(served) < len(serves) or len(updates) < len(targets):
            phase = 2 if len(served) < len(serves) else 3
            msg = pending.pop(0) if pending else _recv(transport, it, phase)
            src = msg.src
            if msg.phase == 1 and src in served:  # its sender opened the next round
                if it + 1 == iterations or src in held:
                    raise ProtocolError(
                        f"duplicate phase-1 broadcast from node {src} in iteration {it}"
                    )
                held[src] = msg
            elif msg.phase == 1:
                if src not in serves:
                    raise ProtocolError(f"unexpected phase-1 broadcast from node {src}")
                reply = callbacks.client_fn(snapshot, private_data, msg.payload)
                _send(transport, src, Message(2, me, reply), it, 2)
                served.add(src)
                if not targets:
                    local_data = reply  # adopt only after the reply is on the wire
            else:
                if src not in collects:
                    raise ProtocolError(f"unexpected update from node {src}")
                if src in updates:
                    raise ProtocolError(f"duplicate update from node {src} in iteration {it}")
                updates[src] = msg.payload
        if targets:
            ordered = [updates[src] for src in sorted(updates)]
            local_data = callbacks.server_fn(private_data, ordered)
    return local_data
