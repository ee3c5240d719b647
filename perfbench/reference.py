"""Workload inputs and the in-process reference payloads every run is checked
against.

References are computed under the interpreter the nodes run, never pinned:
the float sums in ``logreg`` differ between interpreter versions.  Each
reference also has to make the digest check able to fail: the nodes' final
payloads must differ pairwise, so a swapped partition or node result
shows, and every round must change every node's payload, so a run
that skipped rounds shows.  Inputs that do not meet both are refused.
"""

from __future__ import annotations

import hashlib

from fedforge.logreg import (
    ModelVector,
    bundled_sna_path,
    cb_cent_client,
    cb_cent_server,
    cb_decent_server,
    load_sna_csv,
    partition_horizontal,
    serialize_model,
    split,
)
from fedforge.paradigm import TEST_FRACTION, phase3_federated_callbacks
from fedforge.rng import SplitMix64

from cheap import cheap_inputs, client_add

ZERO = serialize_model(ModelVector(0.0, 0.0))


class RefusedInput(Exception):
    """The workload's inputs would let a wrong run pass the digest check."""


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def split_seed_for(seed: int) -> int:
    """The dataset split seed a workload seed maps to.

    Hashing keeps workload seed 42 away from split seed 42, under which the
    bundled CSV gives both partition halves identical rows.
    """
    return SplitMix64(seed).next_u64() % 2**31


def _check_distinct(final: dict[int, bytes], what: str) -> None:
    if len(set(final.values())) != len(final):
        raise RefusedInput(f"{what}: nodes end with equal payloads, a swap would pass")


def _check_rounds(history: list[dict[int, bytes]], what: str) -> None:
    """Refuse when some round leaves a node's payload as it was."""
    for r in range(1, len(history)):
        for node, payload in history[r].items():
            if payload == history[r - 1][node]:
                raise RefusedInput(
                    f"{what}: node {node} payload stops changing at round {r}; "
                    f"use fewer than {r} rounds")


def star_reference(split_seed: int) -> dict[int, bytes]:
    """Final payloads of ``launch --nodes 3 --algo centralized --iters 1``.

    Server 0 holds the aggregate; clients 1 and 2 hold their own updates.
    """
    report = phase3_federated_callbacks(load_sna_csv(bundled_sna_path()), split_seed, k=2)
    client1, client2, aggregate = (serialize_model(m) for m in report.models)
    final = {0: aggregate, 1: client1, 2: client2}
    _check_distinct(final, f"star, split seed {split_seed}")
    return final


def clique_reference(split_seed: int, rounds: int) -> dict[int, bytes]:
    """Final payloads of ``launch --nodes 2 --algo decentralized``, by an
    R-round loop of the clique callbacks."""
    data = split(load_sna_csv(bundled_sna_path()), TEST_FRACTION, split_seed)
    parts = partition_horizontal(data.X_train, data.y_train, 2)
    history = [{0: ZERO, 1: ZERO}]
    for _ in range(rounds):
        x = history[-1]
        history.append({i: cb_decent_server(parts[i], [cb_cent_client(x[1 - i], parts[1 - i], x[i])])
                        for i in (0, 1)})
    what = f"clique, split seed {split_seed}"
    _check_rounds(history, what)
    _check_distinct(history[-1], what)
    return history[-1]


def cheap_reference(seed: int, n_nodes: int, rounds: int) -> dict[int, bytes]:
    """Final payloads of a clique of ``client_add``/``cb_cent_server`` nodes."""
    inits, consts = cheap_inputs(seed, n_nodes)
    history = [dict(enumerate(inits))]
    for _ in range(rounds):
        x = history[-1]
        history.append({
            i: cb_cent_server(None, [client_add(x[j], consts[j], x[i])
                                     for j in range(n_nodes) if j != i])
            for i in range(n_nodes)})
    what = f"cheap clique of {n_nodes}, seed {seed}"
    _check_rounds(history, what)
    _check_distinct(history[-1], what)
    return history[-1]
