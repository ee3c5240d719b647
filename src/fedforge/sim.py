"""Deterministic in-memory transport for message-reordering tests.

The simulator replaces TCP with a shared table of in-flight messages and
hands them out according to a pluggable delivery schedule.  Two properties
make runs reproducible:

* Per-pair FIFO is structural: for every (src, dst) pair only the oldest
  undelivered message is ever offered to the schedule, so no schedule can
  reorder one sender's messages to one receiver.
* Deliveries happen only at quiescent points, when every node is either
  blocked in ``recv`` or finished.  The set of deliverable messages at each
  decision point is then a pure function of the engines' behaviour and the
  schedule's previous choices, never of thread timing.

Quiescence also gives free deadlock detection: if nobody is running and no
delivery is possible, the run can never progress and the simulator raises
instead of hanging.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .rng import SplitMix64
from .transport import (
    Message,
    NodeConfig,
    TransportClosedError,
    TransportError,
    TransportStats,
)

_RUNNING = 0
_WAITING = 1
_DONE = 2


class SimStallError(TransportError):
    """No node can make progress: the run is deadlocked."""


class ScheduleError(TransportError):
    """Delivery schedule rejected at construction (per-pair FIFO violation)."""


@dataclass(frozen=True)
class Candidate:
    """One deliverable message offered to a schedule."""

    src: int
    pair_index: int  # 0-based position within the (src, dst) stream
    seq: int  # global send order
    message: Message


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
        self.cond = threading.Condition()
        self.state = [_RUNNING] * n_nodes
        self.ready: list[Message | None] = [None] * n_nodes
        self.peer_gone: list[bool] = [False] * n_nodes
        self.stalled: str | None = None
        # in_flight[dst][src] -> list of (seq, pair_index, Message), oldest first
        self.in_flight: list[dict[int, list[tuple[int, int, Message]]]] = [
            {} for _ in range(n_nodes)
        ]
        self.pair_sent: dict[tuple[int, int], int] = {}
        self.next_seq = 0
        self.delivery_log: list[tuple[int, int, int, int]] = []  # (dst, src, seq, phase)

    # All helpers below assume self.cond is held.

    def _candidates(self, dst: int) -> list[Candidate]:
        out = []
        for src in sorted(self.in_flight[dst]):
            pending = self.in_flight[dst][src]
            if pending:
                seq, pair_index, message = pending[0]
                out.append(Candidate(src, pair_index, seq, message))
        return out

    def _try_deliver(self) -> None:
        if any(s == _RUNNING for s in self.state):
            return
        waiting = [n for n in range(self.n_nodes) if self.state[n] == _WAITING]
        if not waiting:
            return
        for node in waiting:
            candidates = self._candidates(node)
            if not candidates:
                continue
            chosen = self.schedule.choose(node, candidates)
            if chosen is None:
                continue
            self.in_flight[node][chosen.src].pop(0)
            self.ready[node] = chosen.message
            self.state[node] = _RUNNING
            self.delivery_log.append((node, chosen.src, chosen.seq, chosen.message.phase))
            self.cond.notify_all()
            return
        # Nobody is running and nothing can be delivered: terminal state.
        if len(waiting) == 1 and not self._candidates(waiting[0]):
            self.peer_gone[waiting[0]] = True
        else:
            self.stalled = f"nodes {waiting} wait forever (no deliverable message)"
        self.cond.notify_all()


class SimTransport:
    """Engine-facing handle onto one simulated node."""

    def __init__(self, network: SimNetwork, config: NodeConfig):
        self._net = network
        self.config = config
        self.stats = TransportStats()
        self._closed = False

    def send(self, dst: int, msg: Message) -> None:
        net = self._net
        self.config.check_destination(dst)
        with net.cond:
            if self._closed:
                raise TransportError("send on closed sim transport")
            src = self.config.node_id
            pair = (src, dst)
            pair_index = net.pair_sent.get(pair, 0)
            net.pair_sent[pair] = pair_index + 1
            net.in_flight[dst].setdefault(src, []).append((net.next_seq, pair_index, msg))
            net.next_seq += 1
            self.stats.data_sent += 1
            net.cond.notify_all()

    def recv(self) -> Message:
        net = self._net
        me = self.config.node_id
        with net.cond:
            if self._closed:
                raise TransportClosedError("recv on closed sim transport")
            net.state[me] = _WAITING
            net.cond.notify_all()
            while True:
                msg = net.ready[me]
                if msg is not None:
                    net.ready[me] = None
                    self.stats.data_received += 1
                    return msg
                if net.stalled is not None:
                    net.state[me] = _RUNNING
                    raise SimStallError(net.stalled)
                if net.peer_gone[me]:
                    net.state[me] = _RUNNING
                    raise TransportClosedError(
                        f"node {me}: all peers finished and no message is in flight"
                    )
                net._try_deliver()
                if (
                    net.ready[me] is None
                    and net.stalled is None
                    and not net.peer_gone[me]
                ):
                    net.cond.wait(timeout=0.5)

    def close(self) -> None:
        net = self._net
        with net.cond:
            if self._closed:
                return
            self._closed = True
            net.state[self.config.node_id] = _DONE
            net._try_deliver()
            net.cond.notify_all()

    def __enter__(self) -> "SimTransport":
        return self

    def __exit__(self, *exc_info):
        self.close()


def sim_transport(
    n_nodes: int,
    schedule=None,
    srv_id: int = 0,
) -> list[SimTransport]:
    """Create one connected in-memory transport handle per node.

    There is no hello barrier to wait for: handles are ready immediately,
    which matches the post-barrier state of the TCP transport.
    """
    network = SimNetwork(n_nodes, schedule if schedule is not None else FifoSchedule())
    return [
        SimTransport(network, NodeConfig(n_nodes=n_nodes, node_id=i, srv_id=srv_id))
        for i in range(n_nodes)
    ]


@dataclass
class _NodeOutcome:
    result: object = None
    error: Exception | None = None
    failed: bool = False


def run_nodes(handles: list[SimTransport], node_fn) -> list:
    """Run ``node_fn(handle)`` for every handle, one thread per node.

    Handles are closed when their node function returns or raises, so a
    crashed node surfaces as a stall or closed-transport error on its peers
    rather than a hang.  The first non-stall error is re-raised; results come
    back in node-id order.
    """
    outcomes = [_NodeOutcome() for _ in handles]

    def runner(i: int, handle: SimTransport):
        try:
            outcomes[i].result = node_fn(handle)
        except Exception as exc:  # noqa: BLE001 - reported to the caller below
            outcomes[i].error = exc
            outcomes[i].failed = True
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

    errors = [o.error for o in outcomes if o.failed]
    if errors:
        primary = next((e for e in errors if not isinstance(e, SimStallError)), errors[0])
        raise primary
    return [o.result for o in outcomes]
