"""Callbacks of the relay and sim workloads: no training, only aggregation.

Kept apart from ``reference.py`` so that the relay node program imports no
more of fedforge than a node needs.
"""

from __future__ import annotations

from fedforge.engine import CallbackPair, fl_decentralized
from fedforge.logreg import ModelVector, cb_cent_server, deserialize_model, serialize_model
from fedforge.rng import SplitMix64


def cheap_inputs(seed: int, n_nodes: int) -> tuple[list[bytes], list[ModelVector]]:
    """Initial payloads and per-node constants of the relay and sim workloads."""
    rng = SplitMix64(seed)
    inits = [serialize_model(ModelVector(rng.uniform() - 0.5, rng.uniform() - 0.5))
             for _ in range(n_nodes)]
    consts = [ModelVector(0.1 + 0.1 * rng.uniform(), -0.05 - 0.1 * rng.uniform())
              for _ in range(n_nodes)]
    return inits, consts


def client_add(local_data: bytes, private_data: ModelVector, payload: bytes) -> bytes:
    """Aggregation-only client: add the serving node's constant to the model,
    so that every round moves every node's payload."""
    m = deserialize_model(payload)
    return serialize_model(ModelVector(m.b0 + private_data.b0, m.b1 + private_data.b1))


def cheap_clique(tracer=None):
    """Callbacks and round loop of the relay and sim workloads; with a
    ``spans.Tracer``, each is wrapped in spans."""
    if tracer is None:
        return CallbackPair(server_fn=cb_cent_server, client_fn=client_add), fl_decentralized
    callbacks = CallbackPair(
        server_fn=tracer.wrap(cb_cent_server, "server_fn", "logreg.cb_cent_server"),
        client_fn=tracer.wrap(client_add, "client_fn", "bench.client_add"))
    return callbacks, tracer.wrap(fl_decentralized, "engine.fl_decentralized")
