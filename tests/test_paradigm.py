"""Staged equivalence harness: the four reference stages, report
comparison rules, and the suite's verdict-versus-crash separation."""

import struct
from pathlib import Path

import pytest

import fedforge.paradigm as paradigm
from fedforge.launcher import LauncherError, LaunchResult
from fedforge.logreg import (
    ModelVector,
    TrainConfig,
    bundled_sna_path,
    gen_synthetic,
    load_sna_csv,
    serialize_model,
)
from fedforge.paradigm import (
    COEFF_DRIFT_EPS,
    ComparisonError,
    EquivalenceReport,
    RunReport,
    SuiteError,
    TEST_FRACTION,
    compare_reports,
    phase1_seq_base_case,
    phase2_federated_sequential,
    phase3_federated_callbacks,
    run_equivalence_suite,
)

HEADER = "User ID,Gender,Age,EstimatedSalary,Purchased\n"


@pytest.fixture(scope="module")
def bundled():
    return load_sna_csv(bundled_sna_path())


def tiny_csv(dirpath) -> Path:
    rows = "".join(
        f"{i},Male,{20 + 3 * i},{30000 + 1000 * i},{i % 2}\n" for i in range(12)
    )
    path = Path(dirpath) / "tiny.csv"
    path.write_text(HEADER + rows)
    return path


def bits(m: ModelVector) -> bytes:
    return struct.pack(">dd", m.b0, m.b1)


# -- stages ---------------------------------------------------------------


def test_constants():
    assert TEST_FRACTION == 0.20
    assert COEFF_DRIFT_EPS == 0.15


def test_stage1_shape_and_band(bundled):
    report = phase1_seq_base_case(bundled)
    assert report.phase == 1
    assert len(report.models) == 1
    assert report.aggregate == report.models[0]
    assert 0.85 <= report.accuracy <= 0.95


def test_stage1_deterministic(bundled):
    a = phase1_seq_base_case(bundled)
    b = phase1_seq_base_case(bundled)
    assert bits(a.aggregate) == bits(b.aggregate)
    assert a.accuracy == b.accuracy


def test_stage2_mean_of_partition_models(bundled):
    report = phase2_federated_sequential(bundled, k=2)
    assert report.phase == 2
    assert len(report.models) == 3  # two clients plus the aggregate
    m0, m1, agg = report.models
    assert agg.b0 == (0.0 + m0.b0 + m1.b0) / 2
    assert agg.b1 == (0.0 + m0.b1 + m1.b1) / 2


def test_stage2_k1_degenerates_to_stage1(bundled):
    single = phase2_federated_sequential(bundled, k=1)
    base = phase1_seq_base_case(bundled)
    assert bits(single.aggregate) == bits(base.aggregate)
    assert single.accuracy == base.accuracy


def test_stage2_keeps_stage1_accuracy(bundled):
    # Coefficients drift under partitioning; the test accuracy must not.
    assert phase2_federated_sequential(bundled).accuracy == \
        phase1_seq_base_case(bundled).accuracy


def test_stage3_reproduces_stage2_bitwise(bundled):
    r2 = phase2_federated_sequential(bundled, k=2)
    r3 = phase3_federated_callbacks(bundled, k=2)
    assert r3.phase == 3
    assert len(r2.models) == len(r3.models)
    for a, b in zip(r2.models, r3.models):
        assert bits(a) == bits(b)
    assert r2.accuracy == r3.accuracy


def test_stage3_calls_each_callback_once_per_role(bundled, monkeypatch):
    client_msgs = []
    server_calls = []
    real_client = paradigm.cb_cent_client
    real_server = paradigm.cb_cent_server

    def spy_client(local, private, msg, cfg=TrainConfig()):
        out = real_client(local, private, msg, cfg)
        client_msgs.append(out)
        return out

    def spy_server(private, updates):
        server_calls.append(list(updates))
        return real_server(private, updates)

    monkeypatch.setattr(paradigm, "cb_cent_client", spy_client)
    monkeypatch.setattr(paradigm, "cb_cent_server", spy_server)
    phase3_federated_callbacks(bundled, k=3)
    assert len(client_msgs) == 3
    assert len(server_calls) == 1
    assert server_calls[0] == client_msgs  # partition order, unaltered


def test_stages_work_on_synthetic_data():
    ds = gen_synthetic(seed=8, n=200)
    r2 = phase2_federated_sequential(ds, k=4)
    r3 = phase3_federated_callbacks(ds, k=4)
    assert [bits(m) for m in r2.models] == [bits(m) for m in r3.models]


# -- reports --------------------------------------------------------------


def test_report_validation():
    with pytest.raises(ValueError):
        RunReport(models=(), accuracy=0.5, phase=2)
    with pytest.raises(ValueError):
        RunReport(models=(ModelVector(0, 0), ModelVector(1, 1)), accuracy=0.5, phase=1)


def test_report_models_frozen_as_tuple():
    report = RunReport(models=[ModelVector(1.0, 2.0)], accuracy=0.9, phase=2)
    assert isinstance(report.models, tuple)
    assert report.aggregate == ModelVector(1.0, 2.0)


def test_identical_reports_pass_at_zero_eps():
    r = RunReport(models=(ModelVector(0.5, -1.0),), accuracy=0.9, phase=2)
    verdict = compare_reports(r, r, eps=0.0)
    assert verdict.passed
    assert (verdict.err_b0, verdict.err_b1, verdict.accuracy_delta) == (0.0, 0.0, 0.0)


def test_perturbed_aggregate_fails_tight_eps():
    ref = RunReport(models=(ModelVector(1.0, 2.0),), accuracy=0.9, phase=1)
    cand = RunReport(models=(ModelVector(1.0889, 2.0),), accuracy=0.9, phase=2)
    verdict = compare_reports(ref, cand, eps=0.05)
    assert not verdict.passed
    assert verdict.err_b0 == pytest.approx(0.0889)
    assert verdict.err_b1 == 0.0


def test_zero_reference_uses_absolute_error():
    ref = RunReport(models=(ModelVector(0.0, 1.0),), accuracy=0.9, phase=2)
    cand = RunReport(models=(ModelVector(1e-9, 1.0),), accuracy=0.9, phase=3)
    verdict = compare_reports(ref, cand, eps=1e-6)
    assert verdict.passed
    assert verdict.err_b0 == 1e-9


def test_worst_pair_dominates():
    ref = RunReport(models=(ModelVector(1.0, 1.0), ModelVector(2.0, 2.0)),
                    accuracy=0.9, phase=2)
    cand = RunReport(models=(ModelVector(1.0, 1.0), ModelVector(2.2, 2.0)),
                     accuracy=0.9, phase=3)
    verdict = compare_reports(ref, cand, eps=0.05)
    assert verdict.err_b0 == pytest.approx(0.1)
    assert not verdict.passed


def test_single_model_side_compares_aggregates_only():
    # Client models differ wildly; only the aggregates are paired.
    ref = RunReport(models=(ModelVector(9.0, 9.0), ModelVector(0.5, 0.5)),
                    accuracy=0.9, phase=3)
    cand = RunReport(models=(ModelVector(0.5, 0.5),), accuracy=0.9, phase=4)
    assert compare_reports(ref, cand, eps=0.0).passed


def test_unpairable_shapes_raise():
    two = RunReport(models=(ModelVector(0, 0),) * 2, accuracy=0.9, phase=2)
    three = RunReport(models=(ModelVector(0, 0),) * 3, accuracy=0.9, phase=3)
    with pytest.raises(ComparisonError):
        compare_reports(two, three, eps=0.0)


def test_accuracy_tolerance_is_separate():
    ref = RunReport(models=(ModelVector(1.0, 1.0),), accuracy=0.90, phase=1)
    cand = RunReport(models=(ModelVector(1.0, 1.0),), accuracy=0.91, phase=2)
    assert not compare_reports(ref, cand, eps=1.0, acc_eps=0.0).passed
    assert compare_reports(ref, cand, eps=1.0).passed  # acc_eps defaults to eps


def test_report_string_names_phases():
    ref = RunReport(models=(ModelVector(1.0, 1.0),), accuracy=0.9, phase=2)
    text = str(compare_reports(ref, ref, eps=0.0))
    assert text.startswith("phase 2 -> 2: pass")
    assert "err_b0=" in text


# -- suite plumbing (stubbed launches) ------------------------------------


def stub_launch(exit_codes):
    def fake(spec, echo=print):
        return LaunchResult(records=[], exit_codes=list(exit_codes))
    return fake


def test_suite_raises_on_child_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(paradigm, "launch", stub_launch([0, 1, 0]))
    with pytest.raises(SuiteError, match=r"exit codes \[0, 1, 0\]"):
        run_equivalence_suite(tiny_csv(tmp_path))


def test_suite_raises_on_missing_result_file(tmp_path, monkeypatch):
    # Children "succeed" but write nothing.
    monkeypatch.setattr(paradigm, "launch", stub_launch([0, 0, 0]))
    with pytest.raises(SuiteError, match="left no result file"):
        run_equivalence_suite(tiny_csv(tmp_path))


def test_suite_wraps_spawn_failures(tmp_path, monkeypatch):
    def fake(spec, echo=print):
        raise LauncherError("failed to spawn node 0")

    monkeypatch.setattr(paradigm, "launch", fake)
    with pytest.raises(SuiteError, match="centralized leg: failed to spawn"):
        run_equivalence_suite(tiny_csv(tmp_path))


# -- suite end to end -----------------------------------------------------


@pytest.mark.parametrize("leg", range(4))
def test_full_suite_passes_on_bundled_data(full_suite_reports, leg):
    report = full_suite_reports[leg]
    assert report.passed, str(report)


@pytest.fixture(scope="module")
def full_suite_reports():
    return run_equivalence_suite(bundled_sna_path())


def test_suite_report_chain_shape(full_suite_reports):
    chain = [(r.reference_phase, r.candidate_phase) for r in full_suite_reports]
    assert chain == [(1, 2), (2, 3), (3, 4), (3, 4)]
    assert full_suite_reports[0].eps == COEFF_DRIFT_EPS
    assert full_suite_reports[0].acc_eps == 0.0
    assert all(r.eps == 0.0 for r in full_suite_reports[1:])


def test_suite_writes_result_files_when_asked(tmp_path):
    out_dir = tmp_path / "keep"
    reports = run_equivalence_suite(bundled_sna_path(), out_dir=out_dir)
    assert all(r.passed for r in reports)
    assert (out_dir / "centralized" / "node0.bin").is_file()
    assert (out_dir / "decentralized" / "node1.bin").is_file()


def test_broken_aggregation_fails_verdict_not_suite(monkeypatch):
    """A wrong aggregate must come back as passed=False, never as an
    exception: comparison failures are results, crashes are bugs."""
    def sum_without_divide(private, updates):
        models = [paradigm.deserialize_model(u) for u in updates]
        total = ModelVector(sum(m.b0 for m in models), sum(m.b1 for m in models))
        return serialize_model(total)

    monkeypatch.setattr(paradigm, "cb_cent_server", sum_without_divide)
    reports = run_equivalence_suite(bundled_sna_path())
    assert len(reports) == 4
    assert reports[0].passed            # stage 1 vs 2 untouched
    assert not reports[1].passed        # stage 3 now sums instead of averaging
    assert reports[1].err_b0 > 0.5
