"""Engine behavior: the protocol rules on a scripted node, the trivia
pipelines, callback ordering guarantees, round chaining, and reorder
robustness, fuzzed over every FIFO interleaving one node can see."""

import functools
import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from fedforge.engine import CallbackPair, EngineError, fl_centralized, fl_decentralized
from fedforge.logreg import (
    ModelVector,
    cb_cent_client,
    cb_cent_server,
    cb_decent_server,
    gen_synthetic,
    partition_horizontal,
    serialize_model,
    split,
)
from fedforge.sim import ExplicitSchedule, FifoSchedule, SeededSchedule, run_nodes, sim_transport
from fedforge.transport import (
    Message,
    NodeConfig,
    ProtocolError,
    TransportClosedError,
    TransportError,
)

F64 = struct.Struct(">d")


def pack(*values):
    return b"".join(F64.pack(v) for v in values)


def unpack1(payload):
    return F64.unpack(payload)[0]


# -- the protocol rules, one scripted node at a time ----------------------


class ScriptedTransport:
    """One node whose peers' messages come from a script, in order; every
    send is recorded.  An empty script closes the transport."""

    def __init__(self, config, script):
        self.config = config
        self.script = list(script)
        self.sent = []

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def recv(self):
        if not self.script:
            raise TransportClosedError("the script ran out")
        return self.script.pop(0)


# Replies name the payload they answer; aggregates list the updates in order.
TAG_CALLBACKS = CallbackPair(server_fn=lambda private, updates: b"+".join(updates),
                             client_fn=lambda local, private, payload: b"re:" + payload)


def run_scripted(fl, n, node_id, script, iterations=1):
    """Node ``node_id`` of an n-node run with server 0, fed ``script``;
    returns its result and what it sent."""
    transport = ScriptedTransport(NodeConfig(n_nodes=n, node_id=node_id), script)
    result = fl(transport, TAG_CALLBACKS, b"own", None, iterations)
    return result, transport.sent


def rejects(text, fl, n, node_id, script, iterations=1):
    with pytest.raises(ProtocolError) as failure:
        run_scripted(fl, n, node_id, script, iterations)
    assert str(failure.value) == text


def test_phase1_in_phase2_is_client_duty():
    """A star client answers the server's broadcast and keeps its reply."""
    result, sent = run_scripted(fl_centralized, 2, 1, [Message(1, 0, b"m")])
    assert sent == [(0, Message(2, 1, b"re:m"))]
    assert result == b"re:m"


def test_phase2_in_phase2_is_buffered():
    """An update that arrives while broadcasts are still unserved is kept
    for the aggregate, which lists the updates by source."""
    script = [Message(2, 2, b"u2"), Message(1, 1, b"b1"), Message(1, 2, b"b2"),
              Message(2, 1, b"u1")]
    result, _ = run_scripted(fl_decentralized, 3, 0, script)
    assert result == b"u1+u2"


def test_phase2_in_phase3_is_processed():
    result, _ = run_scripted(fl_decentralized, 2, 0, [Message(1, 1, b"b1"), Message(2, 1, b"u1")])
    assert result == b"u1"


def test_duplicate_phase1_last_round_rejected():
    rejects("duplicate phase-1 broadcast from node 1 in iteration 0", fl_decentralized, 2, 0,
            [Message(1, 1, b"b1"), Message(1, 1, b"again")])


def test_phase1_from_finished_peer_held_when_rounds_remain():
    """Node 1's round-2 broadcast overtakes its round-1 update: node 0 holds
    it, then serves it first in round 2."""
    script = [Message(1, 1, b"b1"), Message(1, 1, b"b1'"), Message(2, 1, b"u1"),
              Message(2, 1, b"u1'")]
    result, sent = run_scripted(fl_decentralized, 2, 0, script, iterations=2)
    assert sent == [(1, Message(1, 0, b"own")), (1, Message(2, 0, b"re:b1")),
                    (1, Message(1, 0, b"u1")), (1, Message(2, 0, b"re:b1'"))]
    assert result == b"u1'"


def test_second_held_broadcast_rejected():
    """A peer cannot be two rounds ahead: that needs a reply not yet sent."""
    rejects("duplicate phase-1 broadcast from node 1 in iteration 0", fl_decentralized, 2, 0,
            [Message(1, 1, b"b1"), Message(1, 1, b"b1'"), Message(1, 1, b"b1''")], iterations=3)


def test_phase1_from_unexpected_src_rejected():
    """In a star only the server broadcasts."""
    rejects("unexpected phase-1 broadcast from node 2", fl_centralized, 3, 1,
            [Message(1, 2, b"b2")])


def test_update_from_unexpected_src_rejected():
    """A star client collects nothing."""
    rejects("unexpected update from node 2", fl_centralized, 3, 1, [Message(2, 2, b"u2")])


def test_duplicate_update_rejected():
    rejects("duplicate update from node 1 in iteration 0", fl_centralized, 3, 0,
            [Message(2, 1, b"u1"), Message(2, 1, b"u1")])


# -- trivia pipelines over the simulated transport ------------------------


def first_update_server(private, updates):
    return updates[0]


def echo_client(local, private, payload):
    return payload


def mean_server(private, updates):
    values = [unpack1(u) for u in updates]
    return pack(sum(values) / len(values))


def run_centralized(n, callbacks, locals_, privates=None, iterations=1, schedule=None):
    handles = sim_transport(n, schedule)
    privates = privates or [None] * n

    def node(handle):
        i = handle.config.node_id
        return fl_centralized(handle, callbacks, locals_[i], privates[i], iterations)

    return run_nodes(handles, node)


def run_decentralized(n, callbacks, locals_, privates=None, iterations=1, schedule=None):
    handles = sim_transport(n, schedule)
    privates = privates or [None] * n

    def node(handle):
        i = handle.config.node_id
        return fl_decentralized(handle, callbacks, locals_[i], privates[i], iterations)

    return run_nodes(handles, node)


def test_centralized_identity_pipeline():
    callbacks = CallbackPair(server_fn=first_update_server, client_fn=echo_client)
    results = run_centralized(2, callbacks, [b"server-model", b"client-junk"])
    assert results[0] == b"server-model"  # round-tripped unchanged
    assert results[1] == b"server-model"  # client stored what it sent


def test_centralized_mean_of_identical_values():
    callbacks = CallbackPair(server_fn=mean_server, client_fn=echo_client)
    results = run_centralized(3, callbacks, [pack(4.0), pack(0.0), pack(0.0)])
    assert [unpack1(r) for r in results] == [4.0, 4.0, 4.0]


def own_local_client(local, private, payload):
    return local


def self_inclusive_mean_server(private, updates):
    values = [unpack1(u) for u in updates] + [unpack1(private)]
    return pack(sum(values) / len(values))


def test_decentralized_symmetric_mean():
    """Every node ends with the mean of all initial payloads.

    The client callback contributes the node's own snapshot and the server
    callback appends its own initial value, mirroring how the case-study
    aggregation folds the own-model update into the received ones.
    """
    callbacks = CallbackPair(server_fn=self_inclusive_mean_server,
                             client_fn=own_local_client)
    locals_ = [pack(1.0), pack(5.0)]
    results = run_decentralized(2, callbacks, locals_, privates=locals_)
    assert [unpack1(r) for r in results] == [3.0, 3.0]

    locals3 = [pack(0.0), pack(3.0), pack(12.0)]
    results3 = run_decentralized(3, callbacks, locals3, privates=locals3)
    assert [unpack1(r) for r in results3] == [5.0, 5.0, 5.0]


def test_centralized_rounds_chain():
    def doubling_client(local, private, payload):
        return pack(unpack1(payload) * 2.0)

    callbacks = CallbackPair(server_fn=mean_server, client_fn=doubling_client)
    results = run_centralized(2, callbacks, [pack(4.0), pack(0.0)], iterations=2)
    assert unpack1(results[0]) == 16.0  # 4 -> 8 -> 16
    assert results[1] == results[0]  # client's last update is the same value


# -- logreg referent equality ---------------------------------------------


def synthetic_partitions(k):
    ds = gen_synthetic(seed=11, n=120)
    data = split(ds, 0.20, seed=42)
    return partition_horizontal(data.X_train, data.y_train, k)


def referent_aggregate(parts):
    zero = serialize_model(ModelVector(0.0, 0.0))
    updates = [cb_cent_client(zero, p, zero) for p in parts]
    return cb_cent_server(None, updates)


def test_centralized_matches_sequential_referent():
    parts = synthetic_partitions(2)
    ref = referent_aggregate(parts)
    zero = serialize_model(ModelVector(0.0, 0.0))
    callbacks = CallbackPair(server_fn=cb_cent_server, client_fn=cb_cent_client)
    results = run_centralized(3, callbacks, [zero] * 3, privates=[None, *parts])
    assert results[0] == ref  # bit-for-bit


def test_decentralized_matches_sequential_referent():
    parts = synthetic_partitions(2)
    ref = referent_aggregate(parts)
    zero = serialize_model(ModelVector(0.0, 0.0))
    callbacks = CallbackPair(server_fn=cb_decent_server, client_fn=cb_cent_client)
    results = run_decentralized(2, callbacks, [zero] * 2, privates=list(parts))
    assert results == [ref, ref]


# -- callback ordering and stability guarantees ---------------------------


def tagging_client(local, private, payload):
    return private  # private data holds a per-node tag payload


def test_server_sees_updates_sorted_by_src():
    """Each reply carries its sender's id as the payload value, so a sorted
    update list is exactly an ascending-by-src list, whatever the arrival
    order a seeded schedule produced."""
    seen = []

    def recording_server(private, updates):
        seen.append([unpack1(u) for u in updates])
        return updates[0]

    tags = [pack(float(i)) for i in range(4)]
    callbacks = CallbackPair(server_fn=recording_server, client_fn=tagging_client)
    for seed in range(10):
        seen.clear()
        run_decentralized(4, callbacks, [pack(0.0)] * 4,
                          privates=tags, schedule=SeededSchedule(seed))
        assert len(seen) == 4
        # One server call per node; each sees every id but its own, ascending.
        absents = set()
        for values in seen:
            assert values == sorted(values), f"unsorted updates, seed {seed}"
            (absent,) = set(range(4)) - set(int(v) for v in values)
            absents.add(absent)
        assert absents == {0, 1, 2, 3}


class RecordingTransport:
    """Delegating wrapper that logs every (dst, message) pair sent."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def send(self, dst, msg):
        self.sent.append((dst, msg))
        self.inner.send(dst, msg)


def test_client_stores_exactly_what_it_sent():
    handles = sim_transport(2)
    wrapped = RecordingTransport(handles[1])
    callbacks = CallbackPair(server_fn=mean_server,
                             client_fn=lambda l, p, m: pack(unpack1(m) + 1.5))

    def node(handle):
        if handle.config.node_id == 0:
            return fl_centralized(handle, callbacks, pack(2.0), None, 2)
        return fl_centralized(wrapped, callbacks, pack(0.0), None, 2)

    results = run_nodes([handles[0], wrapped], node)
    phase2_payloads = [m.payload for _, m in wrapped.sent if m.phase == 2]
    assert len(phase2_payloads) == 2
    assert results[1] == phase2_payloads[-1]
    assert unpack1(results[0]) == 5.0  # 2 -> 3.5 -> 5


def test_decentralized_read_stability():
    snapshots = {}

    def recording_client(local, private, payload):
        snapshots.setdefault(private, []).append(local)
        return local

    callbacks = CallbackPair(server_fn=self_inclusive_mean_server,
                             client_fn=recording_client)
    locals_ = [pack(0.0), pack(3.0), pack(12.0)]

    handles = sim_transport(3)

    def node(handle):
        i = handle.config.node_id
        return fl_decentralized(handle, callbacks, locals_[i], locals_[i], 2)

    run_nodes(handles, node)
    for tag, seen in snapshots.items():
        assert len(seen) == 4  # 2 peers x 2 rounds
        first_round, second_round = seen[:2], seen[2:]
        assert len(set(first_round)) == 1, "snapshot changed mid-round"
        assert len(set(second_round)) == 1
        assert first_round[0] == tag  # round 1 broadcasts the initial value
        assert second_round[0] != tag  # round 2 broadcasts the aggregate


# -- message counts -------------------------------------------------------


@pytest.mark.parametrize("srv_id", [0, 2])
@pytest.mark.parametrize("iterations", [1, 3])
def test_centralized_message_count(iterations, srv_id):
    callbacks = CallbackPair(server_fn=mean_server, client_fn=echo_client)
    handles = sim_transport(3, srv_id=srv_id)

    def node(handle):
        i = handle.config.node_id
        return fl_centralized(handle, callbacks, pack(float(i)), None, iterations)

    run_nodes(handles, node)
    total = sum(h.stats.data_sent for h in handles)
    assert total == 4 * iterations  # 2(n-1) per round
    assert sum(h.stats.data_received for h in handles) == total


@pytest.mark.parametrize("iterations", [1, 3])
def test_decentralized_message_count(iterations):
    callbacks = CallbackPair(server_fn=self_inclusive_mean_server,
                             client_fn=own_local_client)
    handles = sim_transport(3)
    locals_ = [pack(float(i)) for i in range(3)]

    def node(handle):
        i = handle.config.node_id
        return fl_decentralized(handle, callbacks, locals_[i], locals_[i], iterations)

    run_nodes(handles, node)
    total = sum(h.stats.data_sent for h in handles)
    assert total == 12 * iterations  # 2 n (n-1) per round
    assert sum(h.stats.data_received for h in handles) == total


# -- run-ahead holding, forced deterministically --------------------------

SUM_CALLBACKS = CallbackPair(
    server_fn=lambda p, updates: pack(sum(unpack1(u) for u in updates)),
    client_fn=echo_client,
)
# Echo clients + sum server double each node's value every round:
# [0, 1, 2] -> [0, 2, 4] -> [0, 4, 8].
SUM_EXPECTED = [0.0, 4.0, 8.0]

# Node 1 finishes round 1 first and its round-2 broadcast reaches node 0
# while node 0 is still in round-1 phase 2 (last entry).
HOLD_IN_PHASE2 = [
    (1, 0, 0), (0, 1, 0), (2, 1, 0), (1, 2, 0),
    (0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 0, 2),
]
# Same idea, but node 0 has served everyone and sits in phase 3 when node
# 1's round-2 broadcast arrives.
HOLD_IN_PHASE3 = [
    (1, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0), (1, 2, 0),
    (0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 0, 2),
]


@pytest.mark.parametrize("order", [HOLD_IN_PHASE2, HOLD_IN_PHASE3],
                         ids=["held-in-phase2", "held-in-phase3"])
def test_next_round_broadcast_held_and_served(order):
    schedule = ExplicitSchedule(order)
    handles = sim_transport(3, schedule)
    locals_ = [pack(float(i)) for i in range(3)]

    def node(handle):
        i = handle.config.node_id
        return fl_decentralized(handle, SUM_CALLBACKS, locals_[i], None, 2)

    results = run_nodes(handles, node)
    assert schedule.entries_consumed == len(order), "forced prefix not exercised"
    assert [unpack1(r) for r in results] == SUM_EXPECTED


REORDER_RUNS = [
    pytest.param(fl_decentralized, n, 0, id=f"clique-n{n}") for n in (2, 3, 4)
] + [
    pytest.param(fl_centralized, n, srv_id, id=f"star-n{n}-srv{srv_id}")
    for n in (2, 3, 4) for srv_id in (0, n - 1)
]


@pytest.mark.parametrize("fl, n, srv_id", REORDER_RUNS)
def test_multi_iteration_reorder_invariance(fl, n, srv_id):
    """Each reply adds its sender's fractional tag to the broadcast, so a
    float sum over the updates depends on their order; delivery order must
    not change any node's result."""
    callbacks = CallbackPair(server_fn=SUM_CALLBACKS.server_fn,
                             client_fn=lambda local, tag, m: pack(unpack1(m) + tag))
    locals_ = [pack(float(i)) for i in range(n)]

    def node_fn(handle):
        i = handle.config.node_id
        return fl(handle, callbacks, locals_[i], 0.1 * (i + 1), 3)

    reference = run_nodes(sim_transport(n, FifoSchedule(), srv_id), node_fn)
    for seed in range(20):
        got = run_nodes(sim_transport(n, SeededSchedule(seed), srv_id), node_fn)
        assert got == reference, f"schedule seed {seed} changed the result"


# -- every FIFO interleaving one node can see, fuzzed ----------------------


def hash_client(local, tag, payload):
    return hashlib.sha256(tag + local + payload).digest()[:8]


def hash_server(tag, updates):
    return hashlib.sha256(tag + b"".join(updates)).digest()[:8]


# Any bytes are valid payloads, and every result depends on the order of
# the updates and on the snapshot each reply reads.
HASH_CALLBACKS = CallbackPair(server_fn=hash_server, client_fn=hash_client)


@functools.lru_cache(maxsize=None)
def fifo_run(fl, n, srv_id, iterations):
    """Every node's result of a FIFO sim run, and for every node the
    messages each peer sent it, in send order."""
    handles = [RecordingTransport(h) for h in sim_transport(n, FifoSchedule(), srv_id)]

    def node(handle):
        tag = bytes([handle.config.node_id])
        return fl(handle, HASH_CALLBACKS, tag, tag, iterations)

    results = run_nodes(handles, node)
    sent = [m for handle in handles for m in handle.sent]
    inbound = [{src: tuple(msg for to, msg in sent if to == dst and msg.src == src)
                for src in range(n) if src != dst} for dst in range(n)]
    return results, inbound


class InterleavingTransport:
    """One node fed its peers' messages, each peer's in send order, with the
    order across peers drawn at every ``recv`` from the peers whose next
    message could have been sent by then.

    A peer's k-th message to this node needs this node's first k messages
    to that peer; a peer that only replies also needs the broadcast it
    answers.  ``extra`` is delivered after ``at`` of the peers' messages.
    When no message can arrive, the transport is closed."""

    def __init__(self, config, inbound, broadcasters, data, extra=None, at=0):
        self.config = config
        self.data = data
        self.queues = inbound
        me = config.node_id
        self.lead = {src: int(me in broadcasters and src not in broadcasters) for src in inbound}
        self.taken = dict.fromkeys(inbound, 0)
        self.sent = dict.fromkeys(inbound, 0)
        self.extra, self.at = extra, at

    def send(self, dst, msg):
        self.sent[dst] += 1

    def recv(self):
        if self.extra is not None and sum(self.taken.values()) == self.at:
            msg, self.extra = self.extra, None
            return msg
        ready = [src for src, queue in self.queues.items()
                 if self.taken[src] < len(queue)
                 and self.sent[src] >= self.taken[src] + self.lead[src]]
        if not ready:
            raise TransportClosedError("no message can arrive")
        src = self.data.draw(st.sampled_from(ready))
        self.taken[src] += 1
        return self.queues[src][self.taken[src] - 1]


FUZZ_RUNS = [
    pytest.param(fl, n, iterations, id=f"{name}-n{n}-iters{iterations}")
    for name, fl in (("star", fl_centralized), ("clique", fl_decentralized))
    for n in (2, 3, 4) for iterations in (1, 2)
]


def interleaved(fl, n, iterations, data, spliced):
    """Draw a node and a server and run that node over an interleaving of
    its FIFO-run messages, with one arbitrary message spliced in if asked;
    returns the run's result and the FIFO run's result for that node."""
    node_id, srv_id = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    results, inbound = fifo_run(fl, n, srv_id, iterations)
    config = NodeConfig(n_nodes=n, node_id=node_id, srv_id=srv_id)
    broadcasters = range(n) if fl is fl_decentralized else {srv_id}
    extra, at = None, 0
    if spliced:
        extra = data.draw(st.builds(Message, st.sampled_from([1, 2]), st.integers(0, n - 1),
                                    st.binary(max_size=8)))
        at = data.draw(st.integers(0, sum(map(len, inbound[node_id].values()))))
    transport = InterleavingTransport(config, inbound[node_id], broadcasters, data, extra, at)
    tag = bytes([node_id])
    return fl(transport, HASH_CALLBACKS, tag, tag, iterations), results[node_id]


@pytest.mark.parametrize("fl, n, iterations", FUZZ_RUNS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_fifo_interleaving_gives_the_fifo_result(fl, n, iterations, data):
    """The held-broadcast rule and the sorted updates make a node's result
    independent of how its peers' messages interleave."""
    got, expected = interleaved(fl, n, iterations, data, spliced=False)
    assert got == expected


@pytest.mark.parametrize("fl, n, iterations", FUZZ_RUNS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_spliced_message_returns_or_fails_named(fl, n, iterations, data):
    """One arbitrary extra message ends the run normally or with a protocol
    or engine error, never with any other exception and never in a hang."""
    try:
        interleaved(fl, n, iterations, data, spliced=True)
    except (ProtocolError, EngineError):
        pass


# -- failure and validation paths -----------------------------------------


def test_missing_server_surfaces_engine_error():
    handles = sim_transport(2)
    callbacks = CallbackPair(server_fn=mean_server, client_fn=echo_client)

    def node(handle):
        if handle.config.node_id == 0:
            return None  # the server never shows up
        return fl_centralized(handle, callbacks, pack(0.0), None)

    with pytest.raises(EngineError, match="iteration 0, phase 2"):
        run_nodes(handles, node)


class FailingSendTransport:
    """A transport whose every send fails the way a reset TCP stream does."""

    config = NodeConfig(n_nodes=2, node_id=0)

    def send(self, dst, msg):
        raise TransportError(f"send to node {dst} failed: [Errno 104] Connection reset by peer")


def test_send_failure_names_the_peer_once():
    callbacks = CallbackPair(server_fn=mean_server, client_fn=echo_client)
    with pytest.raises(EngineError, match="iteration 0, phase 1") as failure:
        fl_decentralized(FailingSendTransport(), callbacks, pack(0.0), None)
    assert str(failure.value).count("node 1") == 1


def test_run_validation():
    callbacks = CallbackPair(server_fn=mean_server, client_fn=echo_client)
    (only,) = sim_transport(1)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        fl_centralized(only, callbacks, b"", None)
    only.close()
    a, b = sim_transport(2)
    with pytest.raises(ValueError, match="iterations"):
        fl_decentralized(a, callbacks, b"", None, iterations=0)
    a.close()
    b.close()
