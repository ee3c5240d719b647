"""Single-feature logistic regression and its federated callbacks.

The model predicts purchase intent from age alone: two coefficients, an
intercept b0 and a slope b1.  Training minimizes squared error through the
sigmoid (not cross-entropy) by full-batch gradient descent.  Every float
sum is an explicit left-to-right loop, never ``sum()``, whose compensated
float summation since CPython 3.12 would round differently; so results are
bit-reproducible on every supported interpreter, and aggregation order
matters.

The callbacks at the bottom adapt training and averaging to the engine's
plug-in signatures.  Models cross the wire as 16-byte big-endian payloads;
training data never does.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

from .errors import FedforgeError
from .rng import SplitMix64, shuffled_indices
from .values import Frozen, Value, set_field, set_fields


class ParseError(FedforgeError):
    """CSV input rejected; message cites the 1-based line number."""


class SplitError(FedforgeError):
    """Train/test split would leave one side empty."""


class PartitionError(FedforgeError):
    """More partitions requested than rows available."""


class PayloadError(FedforgeError):
    """Model payload has the wrong size or a non-finite coefficient."""


class TrainingError(FedforgeError):
    """Training produced a non-finite coefficient."""


class Dataset(Value):
    """Rows of (age, purchased) with a label for error messages."""

    __slots__ = ("rows", "name")

    def __init__(self, rows: list[tuple[float, int]], name: str):
        set_fields(self, rows, name)

    def ages(self) -> list[float]:
        return [age for age, _ in self.rows]

    def labels(self) -> list[int]:
        return [purchased for _, purchased in self.rows]


class SplitData(Value):
    __slots__ = ("X_train", "y_train", "X_test", "y_test")

    def __init__(self, X_train: list[float], y_train: list[int],
                 X_test: list[float], y_test: list[int]):
        set_fields(self, X_train, y_train, X_test, y_test)


class Partition(Value):
    """One client's private training slice."""

    __slots__ = ("X", "Y")

    def __init__(self, X: list[float], Y: list[int]):
        set_fields(self, X, Y)


class TrainConfig(Frozen):
    __slots__ = ("learning_rate", "epochs")

    def __init__(self, learning_rate: float = 0.001, epochs: int = 300):
        set_fields(self, learning_rate, epochs)
        if not 0 < learning_rate < math.inf:  # NaN too
            raise ValueError(f"learning rate must be finite and > 0, got {learning_rate}")
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")


class ModelVector(Frozen):
    __slots__ = ("b0", "b1")

    def __init__(self, b0: float, b1: float):
        set_field(self, "b0", b0)
        set_field(self, "b1", b1)


class Gradient(Frozen):
    __slots__ = ("d_b0", "d_b1")

    def __init__(self, d_b0: float, d_b1: float):
        set_fields(self, d_b0, d_b1)


class EvalResult(Value):
    __slots__ = ("y_pred", "accuracy")

    def __init__(self, y_pred: list[int], accuracy: float):
        set_fields(self, y_pred, accuracy)


_SALARY_NAMES = ("EstimatedSalary", "Estimated")
_DATA_FILE = "Social_Network_Ads.csv"
TEST_FRACTION = 0.20
DEFAULT_SPLIT_SEED = 42


def bundled_sna_path() -> Path:
    """Path of the social-network-ads CSV shipped inside the package."""
    return Path(__file__).resolve().parent / "data" / _DATA_FILE


def load_sna_csv(path) -> Dataset:
    """Read a social-network-ads CSV, keeping only Age and Purchased.

    The header must carry User ID, Gender, Age, EstimatedSalary (or
    Estimated), and Purchased.  Rows are kept in file order.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("User ID", "Gender", "Age", "Purchased") if c not in header]
        if not any(c in header for c in _SALARY_NAMES):
            missing.append(_SALARY_NAMES[0])
        if missing:
            raise ParseError(f"{path.name}: header lacks column(s) {', '.join(missing)}")
        rows: list[tuple[float, int]] = []
        for record in reader:
            line = reader.line_num
            try:
                age = float(record["Age"])
            except (TypeError, ValueError):
                raise ParseError(f"{path.name} line {line}: non-numeric Age {record['Age']!r}") from None
            if not math.isfinite(age):
                raise ParseError(f"{path.name} line {line}: non-finite Age {record['Age']!r}")
            purchased = (record["Purchased"] or "").strip()
            if purchased not in ("0", "1"):
                raise ParseError(f"{path.name} line {line}: Purchased must be 0 or 1, got {purchased!r}")
            rows.append((age, int(purchased)))
    if not rows:
        raise ParseError(f"{path.name}: no data rows")
    return Dataset(rows, path.name)


def gen_synthetic(seed: int, n: int, true_b0: float = -0.4,
                  true_b1: float = 1.5) -> Dataset:
    """Deterministic test fixture: ages uniform on [18, 60], labels drawn
    from a logistic model over the standardized ages."""
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    rng = SplitMix64(seed)
    ages = [18.0 + 42.0 * rng.uniform() for _ in range(n)]
    scores = normalize(ages)
    rows = []
    for age, z in zip(ages, scores):
        p = _sigmoid(true_b0 + true_b1 * z)
        rows.append((age, 1 if rng.uniform() < p else 0))
    return Dataset(rows, f"synthetic(seed={seed}, n={n})")


def split(ds: Dataset, test_fraction: float, seed: int) -> SplitData:
    """Shuffle row indices with the seeded in-repo PRNG and cut off the
    first round(test_fraction * n) as the test set."""
    if not 0 < test_fraction < 1:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    n = len(ds.rows)
    order = shuffled_indices(n, seed)
    n_test = round(test_fraction * n)
    if n_test == 0 or n_test == n:
        raise SplitError(f"fraction {test_fraction} of {n} rows leaves an empty side")
    test, train = order[:n_test], order[n_test:]
    return SplitData(
        X_train=[ds.rows[i][0] for i in train],
        y_train=[ds.rows[i][1] for i in train],
        X_test=[ds.rows[i][0] for i in test],
        y_test=[ds.rows[i][1] for i in test],
    )


def partition_horizontal(X: list[float], Y: list[int], k: int) -> list[Partition]:
    """Cut (X, Y) into k contiguous row slices, earlier slices larger."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(X) != len(Y):
        raise ValueError(f"length mismatch: {len(X)} vs {len(Y)}")
    if k > len(X):
        raise PartitionError(f"cannot cut {len(X)} rows into {k} partitions")
    base, extra = divmod(len(X), k)
    parts = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        parts.append(Partition(X[start:start + size], Y[start:start + size]))
        start += size
    return parts


def normalize(xs: list[float]) -> list[float]:
    """Standardize: subtract the mean, divide by the sample std (n - 1).

    A zero or undefined std (constant input, single element) degrades to
    pure centering so federated per-partition use stays well-defined.
    Inputs so small that their deviations' squares could underflow, or so
    large that their sums could overflow, are scaled by a power of two
    first; the result is a ratio, so no other input's result changes.

    Rounding bound: each output lies within
    ``2 * sqrt(n) * ((n * eps * max|x| + eta) / s + (n + 6) * eps)`` of the
    exactly standardized value, where ``eps = 2**-53``, ``eta = 2**-1074``
    (the smallest subnormal) and ``s`` is the exact sample std.  Its first
    term is the rounding of the mean, which a spread small against the
    values magnifies: ``[2.0, 2.00001]`` comes out 3.1e-11 off.
    """
    if not xs:
        raise ValueError("cannot normalize an empty vector")
    n = len(xs)
    top = max(map(abs, xs))
    if 0.0 < top < _TINY_INPUT or top > _HUGE_INPUT:
        # Scaling every input by one power of two is exact here (an input
        # that underflows is far below the mean's rounding) and brings the
        # largest into [0.5, 1).
        xs = [math.ldexp(x, -math.frexp(top)[1]) for x in xs]
    total = 0.0
    for x in xs:
        total = total + x
    mean = total / n
    devs = [x - mean for x in xs]
    squares = 0.0
    for d in devs:
        squares = squares + d * d  # IEEE-rounded; ** 2 is libm's pow
    s = math.sqrt(squares / (n - 1)) if n > 1 else 0.0
    if s == 0.0:
        s = 1.0
    return [d / s for d in devs]


# From this largest input up, a nonzero largest deviation is at least
# 2**-455: deviations among values this close to the largest are multiples
# of its half ulp.  The squares' sum is then at least 2**-910, so squares
# rounded in the subnormal range change it by under 2**-160 each.
_TINY_INPUT = 2.0 ** -400
# Up to this largest input, n inputs sum to under n * 2**480 and n squared
# deviations (each under 2**962) to under n * 2**962, which stays finite
# for any list that fits in memory.
_HUGE_INPUT = 2.0 ** 480


def _sigmoid(t: float) -> float:
    if t > 500.0:
        t = 500.0
    elif t < -500.0:
        t = -500.0
    return 1.0 / (1.0 + math.exp(-t))


def predict(xs: list[float], m: ModelVector) -> list[float]:
    """Probability of class 1 for each x; exponent clamped to +/-500."""
    return [_sigmoid(m.b0 + m.b1 * x) for x in xs]


def gradient(X: list[float], Y: list[int], y_pred: list[float]) -> Gradient:
    """Gradient of the squared error summed through the sigmoid."""
    if not len(X) == len(Y) == len(y_pred):
        raise ValueError(f"length mismatch: {len(X)}, {len(Y)}, {len(y_pred)}")
    s0 = 0.0
    s1 = 0.0
    for x, y, p in zip(X, Y, y_pred):
        s0 = s0 + (y - p) * p * (1 - p)
        s1 = s1 + x * (y - p) * p * (1 - p)
    return Gradient(-2 * s0, -2 * s1)


# The largest share of distinct (x, y) rows at which ``train_logreg`` takes
# its grouped loop; see its docstring for the measured break-even.
_GROUPED_PAIR_SHARE = 2 / 3


def train_logreg(X: list[float], Y: list[int], cfg: TrainConfig = TrainConfig(),
                 init: ModelVector = ModelVector(0.0, 0.0)) -> ModelVector:
    """Full-batch gradient descent from ``init``; X is normalized once.

    Each epoch computes ``predict`` and ``gradient`` inline, with the same
    operand order, so the result is the same bits as calling them.  It
    runs one of two loops, chosen from the data:

    - The row loop computes each row's two gradient terms and adds them
      into the sums as it goes.
    - The grouped loop numbers the distinct normalized (x, y) rows once.
      Each epoch it computes every distinct row's terms once, then adds
      them into the sums along the rows, left to right from 0.0.

    Both loops add the same floats in the same order, so they give the
    same bits.  Rows are grouped by ``==``, which merges 0.0 and -0.0; the
    only terms that differ between those are zeros of either sign, and
    adding either to a sum that starts at 0.0 leaves its bits alone.

    The grouped loop runs when the distinct rows are at most
    ``_GROUPED_PAIR_SHARE`` (two thirds) of the rows.  Measured on 160
    rows (CPython 3.11.7, 2 vCPUs), the grouped loop takes 0.5 times the
    row loop's time at a share of 0.3, 0.8 at 0.5, 0.95 at two thirds,
    1.04 at 0.75 and 1.33 at 1, as in data without repeats; the break-even
    lies near 0.7.  The bundled data's partitions among up to three
    clients have shares from 0.16 to 0.45 under the default split.
    """
    if not X or len(X) != len(Y):
        raise ValueError(f"need matching nonempty X, Y; got {len(X)}, {len(Y)}")
    rows = list(zip(normalize(X), map(float, Y)))
    pairs: dict[tuple[float, float], int] = {}
    idx = [pairs.setdefault(row, len(pairs)) for row in rows]
    grouped = len(pairs) <= _GROUPED_PAIR_SHARE * len(rows)
    lr = cfg.learning_rate
    exp = math.exp
    b0, b1 = init.b0, init.b1
    for epoch in range(cfg.epochs):
        s0 = 0.0
        s1 = 0.0
        if grouped:
            terms0 = []
            terms1 = []
            for x, y in pairs:
                t = b0 + b1 * x
                if t > 500.0:
                    t = 500.0
                elif t < -500.0:
                    t = -500.0
                p = 1.0 / (1.0 + exp(-t))
                r = y - p
                q = 1.0 - p
                terms0.append(r * p * q)
                terms1.append(x * r * p * q)
            for i in idx:
                s0 = s0 + terms0[i]
                s1 = s1 + terms1[i]
        else:
            for x, y in rows:
                t = b0 + b1 * x
                if t > 500.0:
                    t = 500.0
                elif t < -500.0:
                    t = -500.0
                p = 1.0 / (1.0 + exp(-t))
                r = y - p
                q = 1.0 - p
                s0 = s0 + r * p * q
                s1 = s1 + x * r * p * q
        b0 = b0 - lr * (-2.0 * s0)
        b1 = b1 - lr * (-2.0 * s1)
        if not (math.isfinite(b0) and math.isfinite(b1)):
            raise TrainingError(f"coefficients diverged at epoch {epoch}: ({b0}, {b1})")
    return ModelVector(b0, b1)


def evaluate(X_test: list[float], y_test: list[int], m: ModelVector) -> EvalResult:
    """Accuracy on a test set; the test set is normalized independently.

    Probabilities at exactly 0.5 count as class 1.
    """
    if not X_test or len(X_test) != len(y_test):
        raise ValueError(f"need matching nonempty test vectors; got {len(X_test)}, {len(y_test)}")
    probs = predict(normalize(X_test), m)
    y_pred = [1 if p >= 0.5 else 0 for p in probs]
    correct = 0.0
    for guess, truth in zip(y_pred, y_test):
        if guess == truth:
            correct += 1.0
    return EvalResult(y_pred, correct / len(y_pred))


_MODEL_WIRE = struct.Struct(">dd")


def serialize_model(m: ModelVector) -> bytes:
    """16-byte payload: b0 then b1, big-endian IEEE-754 binary64."""
    if not (math.isfinite(m.b0) and math.isfinite(m.b1)):
        raise ValueError(f"refusing to serialize non-finite model ({m.b0}, {m.b1})")
    return _MODEL_WIRE.pack(m.b0, m.b1)


def deserialize_model(payload: bytes) -> ModelVector:
    if len(payload) != _MODEL_WIRE.size:
        raise PayloadError(f"model payload must be {_MODEL_WIRE.size} bytes, got {len(payload)}")
    b0, b1 = _MODEL_WIRE.unpack(payload)
    if not (math.isfinite(b0) and math.isfinite(b1)):
        raise PayloadError(f"model payload holds a non-finite coefficient ({b0}, {b1})")
    return ModelVector(b0, b1)


def cb_cent_client(local_data: bytes | None, private_data: Partition,
                   msg: bytes, cfg: TrainConfig = TrainConfig()) -> bytes:
    """Client step: train on the private partition starting from the model
    carried by ``msg``.  ``local_data`` is deliberately ignored."""
    return serialize_model(
        train_logreg(private_data.X, private_data.Y, cfg, init=deserialize_model(msg))
    )


def cb_cent_server(private_data, msgs: list[bytes]) -> bytes:
    """Server step: coefficient-wise mean, accumulated in list order."""
    if not msgs:
        raise ValueError("cannot aggregate an empty update list")
    b0 = 0.0
    b1 = 0.0
    for payload in msgs:
        m = deserialize_model(payload)
        b0 = b0 + m.b0
        b1 = b1 + m.b1
    b0 = b0 / len(msgs)
    b1 = b1 / len(msgs)
    return serialize_model(ModelVector(b0, b1))


def clique_updates(msgs: list[bytes], own: bytes) -> list[bytes]:
    """The updates a clique node averages with ``cb_cent_server``: the
    received ones in list order, then its own."""
    if not msgs:
        raise ValueError("cannot aggregate an empty update list")
    return [*msgs, own]


def cb_decent_server(private_data: Partition, msgs: list[bytes]) -> bytes:
    """Clique aggregation that trains the own update on every call, on the
    own partition from a fresh model.  That update is the same every round,
    so ``fedforge node`` trains it once per run instead."""
    own = cb_cent_client(None, private_data, serialize_model(ModelVector(0.0, 0.0)))
    return cb_cent_server(None, clique_updates(msgs, own))
