"""Case-study pipeline: parsing, splitting, partitioning, training math
(hand values and a finite-difference oracle), evaluation, callbacks, and the
16-byte model payload."""

import math
import struct
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import exact_standardize, fd_gradient, fold_mean, shuffle_replay
from fedforge.logreg import (
    Dataset,
    ModelVector,
    ParseError,
    Partition,
    PartitionError,
    PayloadError,
    SplitError,
    TrainConfig,
    TrainingError,
    bundled_sna_path,
    cb_cent_client,
    cb_cent_server,
    cb_decent_server,
    deserialize_model,
    evaluate,
    gen_synthetic,
    gradient,
    load_sna_csv,
    normalize,
    partition_horizontal,
    predict,
    serialize_model,
    split,
    train_logreg,
)
from fedforge.rng import SplitMix64

ZERO = serialize_model(ModelVector(0.0, 0.0))

HEADER = "User ID,Gender,Age,EstimatedSalary,Purchased\n"


def write_csv(tmp_path, body, header=HEADER, name="ads.csv"):
    path = tmp_path / name
    path.write_text(header + body)
    return path


# -- loading --------------------------------------------------------------


def test_bundled_dataset_shape():
    ds = load_sna_csv(bundled_sna_path())
    assert len(ds.rows) == 400
    assert all(label in (0, 1) for label in ds.labels())
    assert all(isinstance(age, float) for age in ds.ages())


def test_two_row_csv_in_file_order(tmp_path):
    path = write_csv(tmp_path, "1,Male,19,19000,0\n2,Female,35,20000,1\n")
    ds = load_sna_csv(path)
    assert ds.rows == [(19.0, 0), (35.0, 1)]


def test_bad_purchased_cites_line(tmp_path):
    rows = "1,Male,19,1,0\n2,Male,20,1,0\n3,Male,21,1,0\n4,Male,22,1,2\n"
    path = write_csv(tmp_path, rows)
    with pytest.raises(ParseError, match="line 5"):
        load_sna_csv(path)  # header is line 1, bad row is line 5


def test_non_numeric_age_cites_line(tmp_path):
    path = write_csv(tmp_path, "1,Male,young,1,0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_sna_csv(path)


def test_missing_column_rejected(tmp_path):
    path = write_csv(tmp_path, "1,19,0\n", header="User ID,Age,Purchased\n")
    with pytest.raises(ParseError, match="Gender"):
        load_sna_csv(path)


def test_short_salary_header_accepted(tmp_path):
    path = write_csv(tmp_path, "1,Male,19,19000,0\n",
                     header="User ID,Gender,Age,Estimated,Purchased\n")
    assert load_sna_csv(path).rows == [(19.0, 0)]


def test_empty_file_rejected(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(ParseError, match="no data rows"):
        load_sna_csv(path)


# -- synthetic fixture ----------------------------------------------------


def test_synthetic_deterministic():
    a = gen_synthetic(seed=3, n=50)
    b = gen_synthetic(seed=3, n=50)
    assert a.rows == b.rows
    assert a.rows != gen_synthetic(seed=4, n=50).rows


def test_synthetic_steep_slope_is_age_indicator():
    ds = gen_synthetic(seed=9, n=300, true_b0=0.0, true_b1=1e9)
    mean_age = sum(ds.ages()) / len(ds.rows)
    agree = sum(1 for age, label in ds.rows if label == (1 if age > mean_age else 0))
    assert agree / len(ds.rows) >= 0.99


@pytest.mark.parametrize("true_b0", [-1.0, 0.0, 1.0])
def test_synthetic_positives_fraction(true_b0):
    ds = gen_synthetic(seed=1, n=400, true_b0=true_b0, true_b1=1.5)
    positives = sum(ds.labels()) / 400
    assert 0.2 <= positives <= 0.8


def test_synthetic_needs_two_rows():
    with pytest.raises(ValueError):
        gen_synthetic(seed=1, n=1)


# -- splitting ------------------------------------------------------------


def test_split_sizes_on_bundled_data():
    data = split(load_sna_csv(bundled_sna_path()), 0.20, 42)
    assert (len(data.X_train), len(data.X_test)) == (320, 80)
    assert len(data.y_train) == 320 and len(data.y_test) == 80


def test_split_deterministic():
    ds = gen_synthetic(seed=5, n=60)
    a, b = split(ds, 0.25, 7), split(ds, 0.25, 7)
    assert (a.X_train, a.y_train, a.X_test, a.y_test) == \
           (b.X_train, b.y_train, b.X_test, b.y_test)


def test_split_matches_independent_shuffle_replay():
    ds = Dataset(rows=[(float(10 + i), i % 2) for i in range(10)], name="ten")
    data = split(ds, 0.2, 42)
    order = shuffle_replay(10, 42)
    assert data.X_test == [ds.rows[i][0] for i in order[:2]]
    assert data.y_test == [ds.rows[i][1] for i in order[:2]]
    assert data.X_train == [ds.rows[i][0] for i in order[2:]]
    assert data.y_train == [ds.rows[i][1] for i in order[2:]]


@given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=999))
def test_split_is_partition_of_rows(n, seed):
    ds = Dataset(rows=[(float(i), i % 2) for i in range(n)], name="x")
    data = split(ds, 0.5, seed)
    assert sorted(data.X_train + data.X_test) == sorted(ds.ages())
    assert len(data.X_train) == len(data.y_train)
    assert len(data.X_test) == len(data.y_test)
    assert len(data.X_test) == round(0.5 * n)


def test_split_rejects_degenerate_fractions():
    ds = gen_synthetic(seed=1, n=10)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            split(ds, bad, 42)
    tiny = Dataset(rows=[(30.0, 1), (40.0, 0)], name="tiny")
    with pytest.raises(SplitError):
        split(tiny, 0.1, 42)  # round(0.2) = 0 test rows


# -- partitioning ---------------------------------------------------------


def test_partition_bundled_sizes():
    data = split(load_sna_csv(bundled_sna_path()), 0.20, 42)
    parts = partition_horizontal(data.X_train, data.y_train, 2)
    assert [len(p.X) for p in parts] == [160, 160]


def test_partition_identity_for_k1():
    X, Y = [1.0, 2.0, 3.0], [0, 1, 0]
    (only,) = partition_horizontal(X, Y, 1)
    assert (only.X, only.Y) == (X, Y)


def test_partition_seven_rows_three_ways():
    X = [float(i) for i in range(7)]
    Y = [i % 2 for i in range(7)]
    parts = partition_horizontal(X, Y, 3)
    assert [len(p.X) for p in parts] == [3, 2, 2]
    assert sum((p.X for p in parts), []) == X
    assert sum((p.Y for p in parts), []) == Y


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
def test_partition_restores_input(n, k):
    X = [float(i) for i in range(n)]
    Y = [i % 2 for i in range(n)]
    if k > n:
        with pytest.raises(PartitionError):
            partition_horizontal(X, Y, k)
        return
    parts = partition_horizontal(X, Y, k)
    sizes = [len(p.X) for p in parts]
    assert sum((p.X for p in parts), []) == X
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)  # earlier partitions larger


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_horizontal([1.0], [0], 0)
    with pytest.raises(ValueError):
        partition_horizontal([1.0, 2.0], [0], 1)


# -- normalization --------------------------------------------------------


def test_normalize_hand_value():
    assert normalize([1.0, 2.0, 3.0]) == [-1.0, 0.0, 1.0]


def test_normalize_zero_variance_guard():
    assert normalize([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]
    assert normalize([7.0]) == [0.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=100)
       .filter(lambda xs: max(xs) - min(xs) >= 0.01))
def test_normalize_centers(xs):
    # Centering is only well-conditioned with some spread: error grows like
    # mean/std, so a minimum spread of 0.01 on values <= 1000 caps it well
    # below 1e-7.
    zs = normalize(xs)
    assert abs(sum(zs) / len(zs)) < 1e-7


def test_normalize_constant_input_with_inexact_mean():
    # 3 * 171.65838931548245 rounds, so the computed mean misses x and every
    # deviation is the same tiny nonzero value; the output is then constant
    # (not zero: the computed std is nonzero, so the variance guard stays off).
    zs = normalize([171.65838931548245] * 3)
    assert len(set(zs)) == 1


def normalize_bound(xs) -> float:
    """The rounding bound ``normalize`` states for each of its outputs."""
    n = len(xs)
    _, s = exact_standardize(xs)
    eps, eta, top = (Decimal(v) for v in (2.0 ** -53, 2.0 ** -1074, max(map(abs, xs))))
    with localcontext() as ctx:
        ctx.prec = 60
        return float(2 * ctx.sqrt(n) * ((n * eps * top + eta) / s + (n + 6) * eps))


# The spread is small against the values, so the rounding of the mean shows
# (3.1e-11).
CANCELLING = [2.0, 2.00001]
# The squared deviations are subnormal: summed as they are, they gave a std
# 0.1% off, so that normalizing once gave +-0.706443 and twice +-0.707107.
SUBNORMAL_SQUARES = [0.0, 6.138059922634012e-161]


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=100)
       .filter(lambda xs: len(set(xs)) > 1))
@example(CANCELLING)
@example(SUBNORMAL_SQUARES)
def test_normalize_idempotent_on_standardized_data(xs):
    # Exact standardization is idempotent, so the two calls may differ only
    # by their stated rounding bounds.
    once = normalize(xs)
    twice = normalize(once)
    tolerance = normalize_bound(xs) + normalize_bound(once)
    assert all(abs(a - b) <= tolerance for a, b in zip(once, twice))


@given(st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=2, max_size=50)
       .filter(lambda xs: len(set(xs)) > 1))
@example(CANCELLING)
@example(SUBNORMAL_SQUARES)
@example([0.0, 5e-324])
def test_normalize_meets_stated_bound(xs):
    want, _ = exact_standardize(xs)
    bound = normalize_bound(xs)
    assert all(abs(a - b) <= bound for a, b in zip(normalize(xs), want))


@pytest.mark.parametrize("xs", [SUBNORMAL_SQUARES, [0.0, 1e-300], [-5e-324, 5e-324]],
                         ids=["subnormal-squares", "zero-squares", "subnormal-values"])
def test_normalize_tiny_spreads_standardize_fully(xs):
    # Squares that underflow are summed after scaling by a power of two, so
    # the std is right to a few ulps and a second call changes no more.
    once = normalize(xs)
    assert once == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)], rel=2 ** -50, abs=0)
    assert normalize(once) == pytest.approx(once, rel=2 ** -50, abs=0)


def test_normalize_empty_rejected():
    with pytest.raises(ValueError):
        normalize([])


# -- prediction -----------------------------------------------------------


def test_predict_zero_model_is_half():
    assert predict([-3.0, 0.0, 9.9], ModelVector(0.0, 0.0)) == [0.5, 0.5, 0.5]


def test_predict_saturates_after_clamp():
    assert predict([0.0], ModelVector(600.0, 0.0)) == [1.0]
    (low,) = predict([0.0], ModelVector(-600.0, 0.0))
    assert 0.0 < low < 1e-200  # clamped exponent, no overflow


def test_predict_hand_value():
    (p,) = predict([0.5], ModelVector(1.0, 2.0))
    assert p == 0.8807970779778823  # 1 / (1 + e^-2)


# -- gradient -------------------------------------------------------------


def test_gradient_zero_residual():
    g = gradient([1.0, 2.0], [0, 1], [0.0, 1.0])
    assert (g.d_b0, g.d_b1) == (0.0, 0.0)


def test_gradient_hand_value():
    g = gradient([0.0], [1], [0.5])
    assert g.d_b0 == -0.25
    assert g.d_b1 == 0.0


def test_gradient_matches_finite_differences():
    """20 random instances, central differences of the squared-error loss."""
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        n = int(rng.integers(1, 20))
        X = [float(v) for v in rng.uniform(-2.0, 2.0, n)]
        Y = [int(v) for v in rng.integers(0, 2, n)]
        b0, b1 = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
        g = gradient(X, Y, predict(X, ModelVector(b0, b1)))
        want_b0, want_b1 = fd_gradient(X, Y, b0, b1, h=1e-6)
        assert abs(g.d_b0 - want_b0) <= 1e-5 * max(abs(want_b0), 1e-3)
        assert abs(g.d_b1 - want_b1) <= 1e-5 * max(abs(want_b1), 1e-3)


def test_gradient_length_mismatch():
    with pytest.raises(ValueError):
        gradient([1.0], [1, 0], [0.5])


# -- training -------------------------------------------------------------


def test_zero_epochs_returns_init():
    init = ModelVector(0.25, -1.5)
    out = train_logreg([1.0, 2.0], [0, 1], TrainConfig(epochs=0), init)
    assert out == init


def test_single_sample_one_epoch_hand_value():
    out = train_logreg([7.3], [1], TrainConfig(epochs=1))
    assert out == ModelVector(0.00025, 0.0)  # x centers to 0, p = 0.5


def test_training_on_synthetic_beats_chance():
    ds = gen_synthetic(seed=1, n=400, true_b0=0.0, true_b1=2.0)
    data = split(ds, 0.20, 42)
    model = train_logreg(data.X_train, data.y_train)
    assert evaluate(data.X_test, data.y_test, model).accuracy > 0.75


def test_training_deterministic():
    ds = gen_synthetic(seed=2, n=100)
    data = split(ds, 0.20, 42)
    a = train_logreg(data.X_train, data.y_train)
    b = train_logreg(data.X_train, data.y_train)
    assert (a.b0, a.b1) == (b.b0, b.b1)
    assert struct.pack(">dd", a.b0, a.b1) == struct.pack(">dd", b.b0, b.b1)


def test_divergence_detected():
    # Nine residual-0.5 samples push |d_b0| to 2.25; an extreme rate then
    # overflows the very first update.
    X, Y = [1.0] * 9, [1] * 9
    with pytest.raises(TrainingError):
        train_logreg(X, Y, TrainConfig(learning_rate=1e308, epochs=1))


def test_train_validation():
    with pytest.raises(ValueError):
        train_logreg([], [], TrainConfig())
    with pytest.raises(ValueError):
        train_logreg([1.0], [1, 0], TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    TrainConfig(epochs=0)  # zero epochs is legal


# -- evaluation -----------------------------------------------------------


def test_evaluate_perfect_predictions():
    result = evaluate([0.0, 0.0, 10.0, 10.0], [0, 0, 1, 1], ModelVector(0.0, 10.0))
    assert result.accuracy == 1.0
    assert result.y_pred == [0, 0, 1, 1]


def test_tie_probability_is_class_one():
    result = evaluate([1.0, 2.0, 3.0], [1, 0, 1], ModelVector(0.0, 0.0))
    assert result.y_pred == [1, 1, 1]  # p = 0.5 everywhere
    assert result.accuracy == pytest.approx(2 / 3)


def test_full_pipeline_accuracy_band():
    data = split(load_sna_csv(bundled_sna_path()), 0.20, 42)
    model = train_logreg(data.X_train, data.y_train)
    assert 0.85 <= evaluate(data.X_test, data.y_test, model).accuracy <= 0.95


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=30),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
def test_evaluate_labels_total(xs, b0, b1):
    ys = [i % 2 for i in range(len(xs))]
    result = evaluate(xs, ys, ModelVector(b0, b1))
    assert set(result.y_pred) <= {0, 1}
    assert 0.0 <= result.accuracy <= 1.0


def test_evaluate_validation():
    with pytest.raises(ValueError):
        evaluate([], [], ModelVector(0.0, 0.0))
    with pytest.raises(ValueError):
        evaluate([1.0], [1, 0], ModelVector(0.0, 0.0))


# -- payload codec --------------------------------------------------------


def test_zero_model_is_sixteen_zero_bytes():
    assert serialize_model(ModelVector(0.0, 0.0)) == b"\x00" * 16


def test_thousand_random_doubles_round_trip():
    rng = SplitMix64(2024)
    done = 0
    while done < 1000:
        raw = struct.pack(">QQ", rng.next_u64(), rng.next_u64())
        b0, b1 = struct.unpack(">dd", raw)
        if not (math.isfinite(b0) and math.isfinite(b1)):
            continue  # serializer refuses non-finite by contract
        assert serialize_model(deserialize_model(raw)) == raw
        done += 1


def test_wrong_length_rejected():
    with pytest.raises(PayloadError):
        deserialize_model(b"\x00" * 15)
    with pytest.raises(PayloadError):
        deserialize_model(b"\x00" * 17)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        serialize_model(ModelVector(float("nan"), 0.0))
    with pytest.raises(ValueError):
        serialize_model(ModelVector(0.0, float("inf")))


# -- callbacks ------------------------------------------------------------


def synthetic_split():
    return split(gen_synthetic(seed=6, n=150), 0.20, 42)


def test_client_callback_equals_direct_training():
    data = synthetic_split()
    part0, part1 = partition_horizontal(data.X_train, data.y_train, 2)
    got = cb_cent_client(ZERO, part0, ZERO)
    want = serialize_model(train_logreg(part0.X, part0.Y))
    assert got == want
    assert cb_cent_client(ZERO, part1, ZERO) != got  # different data, different model


def test_client_callback_zero_epochs_is_identity():
    part = Partition([5.0, 6.0], [1, 0])
    msg = serialize_model(ModelVector(0.75, -0.25))
    assert cb_cent_client(ZERO, part, msg, TrainConfig(epochs=0)) == msg


def test_client_callback_pure():
    data = synthetic_split()
    (part,) = partition_horizontal(data.X_train, data.y_train, 1)
    msg = serialize_model(ModelVector(0.1, 0.2))
    assert cb_cent_client(ZERO, part, msg) == cb_cent_client(ZERO, part, msg)


def test_server_callback_mean():
    msgs = [serialize_model(ModelVector(1.0, 2.0)), serialize_model(ModelVector(3.0, 4.0))]
    assert deserialize_model(cb_cent_server(None, msgs)) == ModelVector(2.0, 3.0)


def test_server_callback_singleton_identity():
    msg = serialize_model(ModelVector(-0.7, 1.9))
    assert cb_cent_server(None, [msg]) == msg


def test_server_callback_matches_fold_oracle():
    rng = SplitMix64(99)
    models = [ModelVector(rng.uniform() * 4 - 2, rng.uniform() * 4 - 2) for _ in range(5)]
    got = deserialize_model(cb_cent_server(None, [serialize_model(m) for m in models]))
    assert got.b0 == fold_mean([m.b0 for m in models])  # 0 ulps: same order
    assert got.b1 == fold_mean([m.b1 for m in models])


def test_server_callback_rejects_empty():
    with pytest.raises(ValueError):
        cb_cent_server(None, [])
    with pytest.raises(ValueError):
        cb_decent_server(Partition([1.0], [1]), [])


def test_mean_is_order_sensitive_for_three_models():
    """Different grouping, different bits: the reason the engine sorts by src."""
    models = [ModelVector(0.1, 0.1), ModelVector(0.2, 0.2), ModelVector(0.3, 0.3)]
    forward = cb_cent_server(None, [serialize_model(m) for m in models])
    backward = cb_cent_server(None, [serialize_model(m) for m in reversed(models)])
    assert forward != backward


def test_decent_server_self_mean_is_identity():
    data = synthetic_split()
    (part,) = partition_horizontal(data.X_train, data.y_train, 1)
    own = cb_cent_client(None, part, ZERO)
    assert cb_decent_server(part, [own]) == own  # mean of two equal values


def test_aggregation_with_self_equivalence():
    """A node aggregating [peer update] + own training reproduces the
    centralized mean over both partition models, bit for bit."""
    data = synthetic_split()
    part0, part1 = partition_horizontal(data.X_train, data.y_train, 2)
    peer_update = cb_cent_client(None, part1, ZERO)
    via_decent = cb_decent_server(part0, [peer_update])
    own_update = cb_cent_client(None, part0, ZERO)
    via_cent = cb_cent_server(None, [own_update, peer_update])
    assert via_decent == via_cent
