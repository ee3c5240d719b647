"""The value-class contract: equality, hashing, repr, frozenness and
construction-time validation of every public value class."""

import copy
import pickle
from pathlib import Path

import pytest

from fedforge.engine import CallbackPair
from fedforge.launcher import LaunchResult, LaunchSpec, SpawnRecord
from fedforge.logreg import Dataset, EvalResult, ModelVector, Partition, TrainConfig
from fedforge.transport import Frame, Message, NodeConfig, ProtocolError, TransportStats

CSV = Path("ads.csv")

# (class, constructor keywords, one field to change, a different value for
#  it, frozen, exact repr)
CASES = {
    "Message": (Message, dict(phase=1, src=2, payload=b"ab"), "src", 3, True,
                "Message(phase=1, src=2, payload=b'ab')"),
    "Frame": (Frame, dict(kind=1, phase=2, src=3, payload=b"x"), "payload", b"y", True,
              "Frame(kind=1, phase=2, src=3, payload=b'x')"),
    "NodeConfig": (NodeConfig, dict(n_nodes=3, node_id=1), "srv_id", 2, True,
                   "NodeConfig(n_nodes=3, node_id=1, srv_id=0, base_port=6000)"),
    "TransportStats": (TransportStats, dict(), "data_sent", 1, False,
                       "TransportStats(data_sent=0, data_received=0)"),
    "CallbackPair": (CallbackPair, dict(server_fn=len, client_fn=abs), "client_fn", hash,
                     True,
                     "CallbackPair(server_fn=<built-in function len>, "
                     "client_fn=<built-in function abs>)"),
    "ModelVector": (ModelVector, dict(b0=0.0, b1=0.0), "b1", 0.5, True,
                    "ModelVector(b0=0.0, b1=0.0)"),
    "TrainConfig": (TrainConfig, dict(), "epochs", 7, True,
                    "TrainConfig(learning_rate=0.001, epochs=300)"),
    "LaunchSpec": (LaunchSpec, dict(n_nodes=2, algorithm="centralized", dataset_path=CSV),
                   "iterations", 3, True,
                   f"LaunchSpec(n_nodes=2, algorithm='centralized', dataset_path={CSV!r}, "
                   "srv_id=0, iterations=1, base_port=6000, watchdog_seconds=120.0, "
                   "split_seed=42, out_dir=None)"),
    "Partition": (Partition, dict(X=[1.0], Y=[1]), "Y", [0], False, "Partition(X=[1.0], Y=[1])"),
    "Dataset": (Dataset, dict(rows=[(1.0, 1)], name="d"), "name", "e", False,
                "Dataset(rows=[(1.0, 1)], name='d')"),
    "EvalResult": (EvalResult, dict(y_pred=[1], accuracy=0.5), "accuracy", 1.0, False,
                   "EvalResult(y_pred=[1], accuracy=0.5)"),
    "LaunchResult": (LaunchResult, dict(records=[SpawnRecord(0, ("a",), 5)], exit_codes=[0]),
                     "exit_codes", [1], False,
                     "LaunchResult(records=[SpawnRecord(node_id=0, argv=('a',), pid=5)], "
                     "exit_codes=[0])"),
    "SpawnRecord": (SpawnRecord, dict(node_id=0, argv=("a",), pid=5), "pid", 6, True,
                    "SpawnRecord(node_id=0, argv=('a',), pid=5)"),
}


def _build(case, **change):
    cls, kwargs, *_ = CASES[case]
    return cls(**{**kwargs, **change})


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_compare_equal(name):
    cls, kwargs, field, other, *_ = CASES[name]
    assert _build(name) == _build(name)
    assert cls(*kwargs.values()) == _build(name)  # positional order is field order
    assert _build(name) != _build(name, **{field: other})
    assert _build(name) != tuple(kwargs.values())  # another type never compares equal


@pytest.mark.parametrize("name", CASES)
def test_hashable_exactly_when_frozen(name):
    cls, _, field, other, frozen, _ = CASES[name]
    if frozen:
        assert hash(_build(name)) == hash(_build(name))
        assert len({_build(name), _build(name), _build(name, **{field: other})}) == 2
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(_build(name))


@pytest.mark.parametrize("name", CASES)
def test_repr_names_every_field_in_order(name):
    assert repr(_build(name)) == CASES[name][-1]


@pytest.mark.parametrize("name", CASES)
def test_fields_assign_exactly_when_not_frozen(name):
    _, _, field, other, frozen, _ = CASES[name]
    value = _build(name)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert value == _build(name)
    else:
        setattr(value, field, other)
        assert value == _build(name, **{field: other})


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_compare_equal(name):
    value = _build(name)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("build, error, text", [
    (lambda: NodeConfig(2, 2), ValueError, "node id 2 outside [0, 2)"),
    (lambda: Frame(0, 1, 0), ProtocolError, "HELLO frames carry phase 0 and no payload"),
    (lambda: TrainConfig(epochs=-1), ValueError, "epochs must be >= 0, got -1"),
    (lambda: LaunchSpec(2, "centralized", CSV, watchdog_seconds=0),
     ValueError, "watchdog must be positive, got 0"),
], ids=["NodeConfig", "Frame", "TrainConfig", "LaunchSpec"])
def test_construction_rejects_invalid_fields(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text
