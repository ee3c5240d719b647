"""Staged reference runs of the logistic-regression study plus the harness
that checks the stages against each other.

The development path goes: (1) plain sequential training, (2) sequential
training over horizontal partitions with a mean aggregate, (3) the same
computation routed through the federation callbacks, (4) real multi-process
runs over TCP.  Each stage must reproduce its predecessor: stage 2 may drift
from stage 1 within a small coefficient tolerance but must match its accuracy,
while stages 3 and 4 must match stage 2's aggregate bit for bit.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from .errors import FedforgeError
from .launcher import LaunchSpec, launch, node_out_path
from .logreg import (
    DEFAULT_SPLIT_SEED,
    TEST_FRACTION,
    Dataset,
    ModelVector,
    TrainConfig,
    cb_cent_client,
    cb_cent_server,
    deserialize_model,
    evaluate,
    load_sna_csv,
    partition_horizontal,
    serialize_model,
    split,
    train_logreg,
)
from .transport import free_base_port
from .values import Frozen, set_fields

# Tolerances for the report chain.  Zero everywhere the stages compute the
# same arithmetic; the stage-1 vs stage-2 coefficients genuinely differ
# (partitioned training is not full-batch training), so those get headroom.
COEFF_DRIFT_EPS = 0.15


class ComparisonError(FedforgeError):
    """Two reports cannot be compared model-for-model."""


class SuiteError(FedforgeError):
    """An equivalence-suite leg failed operationally (spawn, exit, files)."""


class RunReport(Frozen):
    """Outcome of one staged run.

    ``models`` lists the per-client updates first and the aggregate last;
    a stage-1 run reports exactly one model (its only product).  ``accuracy``
    is the aggregate's accuracy on the held-out test rows.
    """

    __slots__ = ("models", "accuracy", "phase")

    def __init__(self, models: tuple[ModelVector, ...], accuracy: float, phase: int):
        set_fields(self, tuple(models), accuracy, phase)
        if not self.models:
            raise ValueError("a report needs at least one model")
        if self.phase == 1 and len(self.models) != 1:
            raise ValueError(f"stage 1 reports exactly one model, got {len(self.models)}")

    @property
    def aggregate(self) -> ModelVector:
        return self.models[-1]


class EquivalenceReport(Frozen):
    """Worst-case per-coefficient error between two runs, plus the verdict.

    Errors are relative to the reference coefficient, falling back to
    absolute error when the reference is zero.  ``acc_eps`` lets the accuracy
    tolerance differ from the coefficient one (the stage-1 vs stage-2 check
    allows coefficient drift but demands equal accuracy).
    """

    __slots__ = ("reference_phase", "candidate_phase", "err_b0", "err_b1", "accuracy_delta",
                 "eps", "acc_eps", "passed")

    def __init__(self, reference_phase: int, candidate_phase: int, err_b0: float,
                 err_b1: float, accuracy_delta: float, eps: float, acc_eps: float,
                 passed: bool):
        set_fields(self, reference_phase, candidate_phase, err_b0, err_b1, accuracy_delta, eps,
                   acc_eps, passed)

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"phase {self.reference_phase} -> {self.candidate_phase}: {verdict} "
                f"(err_b0={self.err_b0:.3e}, err_b1={self.err_b1:.3e}, "
                f"acc_delta={self.accuracy_delta:.3e}, eps={self.eps:g})")


def _rel_err(reference: float, candidate: float) -> float:
    if reference == 0.0:
        return abs(candidate)
    return abs(candidate - reference) / abs(reference)


def phase1_seq_base_case(ds: Dataset, split_seed: int = DEFAULT_SPLIT_SEED,
                         cfg: TrainConfig = TrainConfig()) -> RunReport:
    """Stage 1: train once on the full training split."""
    data = split(ds, TEST_FRACTION, split_seed)
    model = train_logreg(data.X_train, data.y_train, cfg)
    result = evaluate(data.X_test, data.y_test, model)
    return RunReport(models=(model,), accuracy=result.accuracy, phase=1)


def phase2_federated_sequential(ds: Dataset, split_seed: int = DEFAULT_SPLIT_SEED,
                                cfg: TrainConfig = TrainConfig(), k: int = 2) -> RunReport:
    """Stage 2: train each horizontal partition independently from (0, 0),
    then aggregate by coefficient-wise mean.

    k=1 is the degenerate sanity case: the aggregate is then the single
    partition model, which is exactly the stage-1 model.
    """
    data = split(ds, TEST_FRACTION, split_seed)
    parts = partition_horizontal(data.X_train, data.y_train, k)
    models = [train_logreg(p.X, p.Y, cfg) for p in parts]
    b0 = 0.0
    b1 = 0.0
    for m in models:
        b0 = b0 + m.b0
        b1 = b1 + m.b1
    aggregate = ModelVector(b0 / len(models), b1 / len(models))
    result = evaluate(data.X_test, data.y_test, aggregate)
    return RunReport(models=(*models, aggregate), accuracy=result.accuracy, phase=2)


def phase3_federated_callbacks(ds: Dataset, split_seed: int = DEFAULT_SPLIT_SEED,
                               cfg: TrainConfig = TrainConfig(), k: int = 2) -> RunReport:
    """Stage 3: the stage-2 computation, but routed through the federation
    callbacks with a zero model as both the local state and the request."""
    data = split(ds, TEST_FRACTION, split_seed)
    parts = partition_horizontal(data.X_train, data.y_train, k)
    zero = serialize_model(ModelVector(0.0, 0.0))
    msgs = [cb_cent_client(zero, p, zero, cfg) for p in parts]
    aggregate_payload = cb_cent_server(None, msgs)
    aggregate = deserialize_model(aggregate_payload)
    result = evaluate(data.X_test, data.y_test, aggregate)
    models = tuple(deserialize_model(m) for m in msgs) + (aggregate,)
    return RunReport(models=models, accuracy=result.accuracy, phase=3)


def compare_reports(ref: RunReport, cand: RunReport, eps: float,
                    acc_eps: float | None = None) -> EquivalenceReport:
    """Compare two runs model-for-model and report the worst errors.

    When either side carries only its aggregate (stage 1, or a single
    distributed node's payload), only the aggregates are compared.  Any other
    shape mismatch is a usage error, not a failed verdict.
    """
    if acc_eps is None:
        acc_eps = eps
    if len(ref.models) == len(cand.models):
        pairs = list(zip(ref.models, cand.models))
    elif len(ref.models) == 1 or len(cand.models) == 1:
        pairs = [(ref.aggregate, cand.aggregate)]
    else:
        raise ComparisonError(
            f"cannot pair {len(ref.models)} reference models with {len(cand.models)}")
    err_b0 = max(_rel_err(r.b0, c.b0) for r, c in pairs)
    err_b1 = max(_rel_err(r.b1, c.b1) for r, c in pairs)
    accuracy_delta = abs(cand.accuracy - ref.accuracy)
    passed = err_b0 <= eps and err_b1 <= eps and accuracy_delta <= acc_eps
    return EquivalenceReport(
        reference_phase=ref.phase,
        candidate_phase=cand.phase,
        err_b0=err_b0,
        err_b1=err_b1,
        accuracy_delta=accuracy_delta,
        eps=eps,
        acc_eps=acc_eps,
        passed=passed,
    )


def _phase4(spec: LaunchSpec, expected: RunReport, data) -> EquivalenceReport:
    """Launch one stage-4 leg and compare every node's payload with
    ``expected`` at eps 0.  The star's server holds the aggregate, so its
    payload goes last; a clique's last node fills the aggregate slot."""
    leg = f"phase 4 {spec.algorithm} leg"
    try:
        result = launch(spec, echo=lambda line: None)
    except FedforgeError as exc:
        raise SuiteError(f"{leg}: {exc}") from exc
    if any(code != 0 for code in result.exit_codes):
        raise SuiteError(f"{leg}: node exit codes {result.exit_codes}")
    ids = list(range(spec.n_nodes))
    if spec.algorithm == "centralized":
        ids.append(ids.pop(spec.srv_id))
    models = []
    for node_id in ids:
        path = node_out_path(spec.out_dir, node_id)
        if not path.is_file():
            raise SuiteError(f"{leg}: node {node_id} left no result file at {path}")
        models.append(deserialize_model(path.read_bytes()))
    accuracy = evaluate(data.X_test, data.y_test, models[-1]).accuracy
    return compare_reports(expected, RunReport(models, accuracy, phase=4), 0.0)


def run_equivalence_suite(dataset_path, split_seed: int = DEFAULT_SPLIT_SEED,
                          out_dir=None) -> list[EquivalenceReport]:
    """Run all four stages and return the report chain.

    Stages 1-3 run in this process with the default ``TrainConfig``, the
    one node processes train with.  Stage 4 launches a 3-node centralized
    run and a 2-node decentralized run through the real launcher and
    sockets; every node's payload must equal its stage-3 counterpart, and
    each clique node the stage-3 aggregate.  Failed comparisons come back
    as reports with ``passed=False``; only operational problems (spawn
    failures, bad exits, missing files) raise.
    """
    ds = load_sna_csv(dataset_path)
    data = split(ds, TEST_FRACTION, split_seed)
    r1 = phase1_seq_base_case(ds, split_seed)
    r2 = phase2_federated_sequential(ds, split_seed, k=2)
    r3 = phase3_federated_callbacks(ds, split_seed, k=2)
    clique_expected = RunReport((r3.aggregate,) * 2, r3.accuracy, phase=3)
    with tempfile.TemporaryDirectory(prefix="fedforge-suite-") as tmp:
        work = Path(out_dir) if out_dir is not None else Path(tmp)
        return [
            compare_reports(r1, r2, COEFF_DRIFT_EPS, acc_eps=0.0),
            compare_reports(r2, r3, 0.0),
            _phase4(LaunchSpec(n_nodes=3, algorithm="centralized", dataset_path=dataset_path,
                               base_port=free_base_port(3), split_seed=split_seed,
                               out_dir=work / "centralized"), r3, data),
            _phase4(LaunchSpec(n_nodes=2, algorithm="decentralized", dataset_path=dataset_path,
                               base_port=free_base_port(2), split_seed=split_seed,
                               out_dir=work / "decentralized"), clique_expected, data),
        ]
