"""Deterministic in-memory transport for message-reordering tests.

The simulator replaces TCP with a shared table of in-flight messages and
hands them out according to a pluggable delivery schedule.  Two properties
make runs reproducible:

* Per-pair FIFO is structural: for every (src, dst) pair only the oldest
  undelivered message is ever offered to the schedule, so no schedule can
  reorder one sender's messages to one receiver.
* One node runs at a time, and holds the turn until it calls ``recv`` or
  ``close``.  So the global send order ``seq`` and the messages deliverable
  at each decision point follow from the engines and the schedule's earlier
  choices, never from thread timing.

An ended turn goes, by the first rule that applies, to:

1. the lowest-id node that ``run_nodes`` has not started yet;
2. the lowest-id waiting node that holds a terminal error;
3. the first waiting node, in id order, that the schedule delivers to;
4. the lowest-id waiting node, once every waiting node has a terminal
   error: ``TransportClosedError`` if every other node has closed and
   nothing is in flight to it, else :class:`SimStallError`, where TCP
   would hang.

That error, or the one of the node's own ``close``, is raised again by
every later ``recv`` of the node.  Otherwise a handle keeps
:mod:`fedforge.transport`'s contract, error texts included.

``run_nodes`` gives each node a thread, as ``node_fn`` blocks in ``recv``.
Handing over the turn marks the next node running and puts one item in its
queue (nothing, to start it, a message or an error): the passing node's
last write before it waits on its own queue, and the only synchronisation.
Handles driven from one thread outside ``run_nodes`` leave every turn with
it: their ``recv`` never blocks, but returns a delivery or raises at once.
"""

from __future__ import annotations

import queue
import threading
from collections import deque

from .rng import SplitMix64
from .transport import (
    Message,
    NodeConfig,
    TransportClosedError,
    TransportError,
    TransportStats,
)
from .values import Frozen, set_field

_NEW = 0  # not yet started by run_nodes
_RUNNING = 1
_WAITING = 2
_DONE = 3


class SimStallError(TransportError):
    """No node can make progress: the run is deadlocked."""


class ScheduleError(TransportError):
    """Delivery schedule rejected at construction (per-pair FIFO violation)."""


class Candidate(Frozen):
    """One deliverable message offered to a schedule."""

    __slots__ = ("src", "pair_index", "seq", "message")

    def __init__(self, src: int, pair_index: int, seq: int, message: Message):
        set_field(self, "src", src)
        set_field(self, "pair_index", pair_index)  # 0-based position within the (src, dst) stream
        set_field(self, "seq", seq)  # global send order
        set_field(self, "message", message)


class FifoSchedule:
    """Identity schedule: deliver in global send order."""

    def choose(self, dst: int, candidates: list[Candidate]) -> Candidate | None:
        return min(candidates, key=lambda c: c.seq)


class SeededSchedule:
    """Adversarial schedule: pick uniformly among eligible senders.

    Choices come from a splitmix64 stream, so a given seed always produces
    the same decision sequence at the same decision points.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = SplitMix64(seed)

    def choose(self, dst: int, candidates: list[Candidate]) -> Candidate | None:
        return candidates[self._rng.below(len(candidates))]


class PhaseTwoFirstSchedule:
    """Deliver buffered-phase traffic before broadcasts wherever possible.

    Holding every round-trip reply ahead of cross-sender broadcasts is the
    most aggressive reordering the engines' out-of-phase buffering must
    absorb.
    """

    def choose(self, dst: int, candidates: list[Candidate]) -> Candidate | None:
        late = [c for c in candidates if c.message.phase == 2]
        pool = late if late else candidates
        return min(pool, key=lambda c: c.seq)


class ExplicitSchedule:
    """Fixed delivery order given as (src, dst, pair_index) triples.

    The constructor rejects orders that would deliver a pair's messages out
    of send order.  Entries are consumed front to back; once exhausted the
    schedule falls back to FIFO.
    """

    def __init__(self, order: list[tuple[int, int, int]]):
        last_seen: dict[tuple[int, int], int] = {}
        for src, dst, pair_index in order:
            key = (src, dst)
            if key in last_seen and pair_index <= last_seen[key]:
                raise ScheduleError(
                    f"order delivers message {pair_index} of pair {key} after {last_seen[key]}"
                )
            last_seen[key] = pair_index
        self._order = list(order)
        self._next = 0

    @property
    def entries_consumed(self) -> int:
        """How many of the ordered entries have been delivered so far."""
        return self._next

    def choose(self, dst: int, candidates: list[Candidate]) -> Candidate | None:
        if self._next >= len(self._order):
            return min(candidates, key=lambda c: c.seq)
        src, want_dst, pair_index = self._order[self._next]
        if want_dst != dst:
            return None
        for cand in candidates:
            if cand.src == src and cand.pair_index == pair_index:
                self._next += 1
                return cand
        return None


class SimNetwork:
    """Shared state of one simulated run; create via :func:`sim_transport`."""

    def __init__(self, n_nodes: int, schedule):
        self.n_nodes = n_nodes
        self.schedule = schedule
        self.turn = [queue.SimpleQueue() for _ in range(n_nodes)]
        # error[n]: raised by every later recv of n (a terminal state's, or n's close's)
        self.error: list[TransportError | None] = [None] * n_nodes
        self.state = [_RUNNING] * n_nodes  # run_nodes marks all but node 0 _NEW
        # in_flight[dst][src]: that pair's undelivered messages, oldest first
        self.in_flight: list[list[deque[Candidate]]] = [
            [deque() for _ in range(n_nodes)] for _ in range(n_nodes)
        ]
        self.pair_sent = [[0] * n_nodes for _ in range(n_nodes)]  # [dst][src]
        self.next_seq = 0
        self.delivery_log: list[tuple[int, int, int, int]] = []  # (dst, src, seq, phase)

    def _candidates(self, dst: int) -> list[Candidate]:
        return [pending[0] for pending in self.in_flight[dst] if pending]

    def _pass_turn(self) -> None:
        """End the calling node's turn: hand it to the node that runs next."""
        waiting = [n for n in range(self.n_nodes) if self.state[n] == _WAITING]
        if _NEW in self.state or waiting:
            node, item = self._next_turn(waiting)
            self.state[node] = _RUNNING
            self.turn[node].put(item)  # the last write before the caller waits

    def _next_turn(self, waiting: list[int]) -> tuple[int, Message | TransportError | None]:
        """The node that runs next, and the item that starts or resumes it."""
        if _NEW in self.state:
            return self.state.index(_NEW), None
        first = waiting[0]
        # A terminal state sets every waiter's error, and a node that holds
        # one never waits again: so all waiters hold one, or none does.
        if self.error[first] is not None:
            return first, self.error[first]
        for node in waiting:
            candidates = self._candidates(node)
            chosen = candidates and self.schedule.choose(node, candidates)
            if chosen:
                self.in_flight[node][chosen.src].popleft()
                self.delivery_log.append((node, chosen.src, chosen.seq, chosen.message.phase))
                return node, chosen.message
        # Nothing can be delivered: terminal state.
        if self.state.count(_DONE) == self.n_nodes - 1 and not self._candidates(first):
            peers = ", ".join(str(i) for i in range(self.n_nodes) if i != first)
            error = TransportClosedError(f"node {first}: all peers disconnected (nodes {peers})")
        else:
            error = SimStallError(f"nodes {waiting} wait forever (no deliverable message)")
        for node in waiting:
            self.error[node] = error
        return first, error


class SimTransport:
    """Engine-facing handle onto one simulated node."""

    def __init__(self, network: SimNetwork, config: NodeConfig):
        self._net = network
        self.config = config
        self.stats = TransportStats()

    def send(self, dst: int, msg: Message) -> None:
        net = self._net
        src = self.config.node_id
        self.config.check_destination(dst)
        if net.state[src] == _DONE:
            raise TransportError(f"send to node {dst} failed: transport closed")
        pair_index = net.pair_sent[dst][src]
        net.pair_sent[dst][src] = pair_index + 1
        net.in_flight[dst][src].append(Candidate(src, pair_index, net.next_seq, msg))
        net.next_seq += 1
        self.stats.data_sent += 1

    def recv(self) -> Message:
        net = self._net
        me = self.config.node_id
        item = net.error[me]
        if item is None:
            net.state[me] = _WAITING
            net._pass_turn()
            item = net.turn[me].get()
        if isinstance(item, TransportError):
            raise type(item)(*item.args)
        self.stats.data_received += 1
        return item

    def close(self) -> None:
        net = self._net
        me = self.config.node_id
        if net.state[me] != _DONE:
            net.error[me] = TransportClosedError(f"node {me}: recv on closed transport")
            net.state[me] = _DONE
            net._pass_turn()

    def __enter__(self) -> "SimTransport":
        return self

    def __exit__(self, *exc_info):
        self.close()


def sim_transport(n_nodes: int, schedule=None, srv_id: int = 0) -> list[SimTransport]:
    """Create one connected in-memory transport handle per node.

    There is no hello barrier to wait for: handles can be used at once,
    which matches the post-barrier state of the TCP transport.
    """
    network = SimNetwork(n_nodes, schedule if schedule is not None else FifoSchedule())
    return [
        SimTransport(network, NodeConfig(n_nodes=n_nodes, node_id=i, srv_id=srv_id))
        for i in range(n_nodes)
    ]


def run_nodes(handles: list[SimTransport], node_fn) -> list:
    """Run ``node_fn(handle)`` for every handle of one network, in id order,
    one thread per node; node 0 starts at once, the others at their turn.

    Handles are closed when their node function returns or raises, so a
    crashed node surfaces as a stall or closed-transport error on its peers
    rather than a hang.  Results come back in node-id order.  The error
    re-raised is the failing node's own: the first, in node-id order, that
    neither is a :class:`TransportError` nor has one as its ``__cause__``
    (as the engine's wrapped transport errors do), else the first error.
    """
    results: list = [None] * len(handles)
    errors: list[Exception | None] = [None] * len(handles)
    for handle in handles[1:]:
        handle._net.state[handle.config.node_id] = _NEW

    def runner(i: int, handle: SimTransport):
        if i:
            handle._net.turn[i].get()
        try:
            results[i] = node_fn(handle)
        except Exception as exc:  # noqa: BLE001 - reported to the caller below
            errors[i] = exc
        finally:
            handle.close()

    threads = [
        threading.Thread(target=runner, args=(i, handle), daemon=True)
        for i, handle in enumerate(handles)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    failures = [e for e in errors if e is not None]
    if failures:
        raise next((e for e in failures if not any(
            isinstance(x, TransportError) for x in (e, e.__cause__))), failures[0])
    return results
