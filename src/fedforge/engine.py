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
deadline enforcement belongs to the process launcher.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .errors import FedforgeError
from .transport import Message, NodeConfig, ProtocolError, TransportError

# client_fn(local_data, private_data, payload) -> update payload
ClientFn = Callable[[bytes, object, bytes], bytes]
# server_fn(private_data, updates) -> new local_data payload
ServerFn = Callable[[object, list[bytes]], bytes]


class EngineError(FedforgeError):
    """A round could not complete; the message names iteration and phase."""


@dataclass(frozen=True)
class CallbackPair:
    """The two application plug-ins a round is parameterized by."""

    server_fn: ServerFn
    client_fn: ClientFn


class Action(enum.Enum):
    """What to do with one incoming message, given the node's phase."""

    PROCESS_CLIENT_DUTY = "process-client-duty"
    BUFFER_UPDATE = "buffer-update"
    PROCESS_UPDATE = "process-update"
    HOLD_NEXT_ROUND = "hold-next-round"


@dataclass
class RoundState:
    """Per-round bookkeeping that drives message classification.

    ``expected_phase1``/``expected_updates`` are fixed by the node's role;
    the mutable sets below record which sources have been served already.
    """

    iteration: int
    iterations: int
    expected_phase1: frozenset[int]
    expected_updates: frozenset[int]
    phase1_done: set[int] = field(default_factory=set)
    updates_seen: set[int] = field(default_factory=set)
    held_next: set[int] = field(default_factory=set)


def handle_incoming(state: RoundState, msg: Message, current_phase: int) -> Action:
    """Classify one received message; raises on protocol violations.

    A phase-1 broadcast from a source already served this round is legal in
    exactly one situation: the sender finished the round first and opened
    the next one.  Per-pair FIFO ordering means its reply to us was
    delivered before that broadcast, and it cannot get further ahead than
    one round because finishing again would require our own reply.  Such a
    broadcast is held and served at the start of the next round; when no
    next round exists it is a duplicate.
    """
    if current_phase not in (2, 3):
        raise ValueError(f"no messages are expected in phase {current_phase}")
    if msg.phase == 1:
        if msg.src in state.phase1_done:
            last_round = state.iteration + 1 >= state.iterations
            if last_round or msg.src in state.held_next:
                raise ProtocolError(
                    f"duplicate phase-1 broadcast from node {msg.src} "
                    f"in iteration {state.iteration}"
                )
            return Action.HOLD_NEXT_ROUND
        if msg.src not in state.expected_phase1:
            raise ProtocolError(f"unexpected phase-1 broadcast from node {msg.src}")
        if current_phase == 3:
            raise ProtocolError(
                f"phase-1 broadcast from node {msg.src} after its serving window"
            )
        return Action.PROCESS_CLIENT_DUTY
    if msg.src not in state.expected_updates:
        raise ProtocolError(f"unexpected update from node {msg.src}")
    if msg.src in state.updates_seen:
        raise ProtocolError(
            f"duplicate update from node {msg.src} in iteration {state.iteration}"
        )
    if current_phase == 2:
        return Action.BUFFER_UPDATE
    return Action.PROCESS_UPDATE


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
    cfg = transport.config
    check_run(cfg, iterations)
    me = cfg.node_id
    targets = cfg.peers() if me in broadcasters else []  # broadcast to, collect from
    serves = frozenset(broadcasters) - {me}
    collects = frozenset(targets)
    held: list[Message] = []
    for it in range(iterations):
        snapshot = local_data
        state = RoundState(it, iterations, serves, collects)
        for dst in targets:
            _send(transport, dst, Message(1, me, snapshot), it, 1)
        # Broadcasts held from the previous round are served first.
        pending, held = held, []
        updates: dict[int, bytes] = {}
        while len(state.phase1_done) < len(serves) or len(updates) < len(targets):
            phase = 2 if len(state.phase1_done) < len(serves) else 3
            msg = pending.pop(0) if pending else _recv(transport, it, phase)
            action = handle_incoming(state, msg, current_phase=phase)
            if action is Action.PROCESS_CLIENT_DUTY:
                reply = callbacks.client_fn(snapshot, private_data, msg.payload)
                _send(transport, msg.src, Message(2, me, reply), it, 2)
                state.phase1_done.add(msg.src)
                if not targets:
                    local_data = reply  # adopt only after the reply is on the wire
            elif action is Action.HOLD_NEXT_ROUND:
                state.held_next.add(msg.src)
                held.append(msg)
            else:  # BUFFER_UPDATE or PROCESS_UPDATE
                state.updates_seen.add(msg.src)
                updates[msg.src] = msg.payload
        if targets:
            ordered = [updates[src] for src in sorted(updates)]
            local_data = callbacks.server_fn(private_data, ordered)
    return local_data
