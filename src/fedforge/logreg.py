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
from dataclasses import dataclass
from pathlib import Path

from .errors import FedforgeError
from .rng import SplitMix64, shuffled_indices


class ParseError(FedforgeError):
    """CSV input rejected; message cites the 1-based line number."""


class SplitError(FedforgeError):
    """Train/test split would leave one side empty."""


class PartitionError(FedforgeError):
    """More partitions requested than rows available."""


class PayloadError(FedforgeError):
    """Model payload has the wrong size."""


class TrainingError(FedforgeError):
    """Training produced a non-finite coefficient."""


@dataclass
class Dataset:
    """Rows of (age, purchased) with a label for error messages."""

    rows: list[tuple[float, int]]
    name: str

    def ages(self) -> list[float]:
        return [age for age, _ in self.rows]

    def labels(self) -> list[int]:
        return [purchased for _, purchased in self.rows]


@dataclass
class SplitData:
    X_train: list[float]
    y_train: list[int]
    X_test: list[float]
    y_test: list[int]


@dataclass
class Partition:
    """One client's private training slice."""

    X: list[float]
    Y: list[int]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 300

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass(frozen=True)
class ModelVector:
    b0: float
    b1: float


@dataclass(frozen=True)
class Gradient:
    d_b0: float
    d_b1: float


@dataclass
class EvalResult:
    y_pred: list[int]
    accuracy: float


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
    Deviations so small that their squares would underflow are scaled by a
    power of two first, which changes no other input's result.

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
    total = 0.0
    for x in xs:
        total = total + x
    mean = total / n
    devs = [x - mean for x in xs]
    top = max(map(abs, devs))
    if 0.0 < top < _TINY_DEVIATION:
        # Squares this small round in the subnormal range; scaling every
        # deviation by one power of two is exact and keeps them normal.
        devs = [math.ldexp(d, -math.frexp(top)[1]) for d in devs]
    squares = 0.0
    for d in devs:
        squares = squares + d ** 2
    s = math.sqrt(squares / (n - 1)) if n > 1 else 0.0
    if s == 0.0:
        s = 1.0
    return [d / s for d in devs]


# From this largest deviation up, the squares' sum is at least 2**-960, so
# squares rounded in the subnormal range change it by under 2**-115 each.
_TINY_DEVIATION = 2.0 ** -480


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


def train_logreg(X: list[float], Y: list[int], cfg: TrainConfig = TrainConfig(),
                 init: ModelVector = ModelVector(0.0, 0.0)) -> ModelVector:
    """Full-batch gradient descent from ``init``; X is normalized once.

    Each epoch is one pass over the rows that computes ``predict`` and
    ``gradient`` inline, with the same operand order, so the result is the
    same bits as calling them.
    """
    if not X or len(X) != len(Y):
        raise ValueError(f"need matching nonempty X, Y; got {len(X)}, {len(Y)}")
    rows = list(zip(normalize(X), map(float, Y)))
    lr = cfg.learning_rate
    exp = math.exp
    b0, b1 = init.b0, init.b1
    for epoch in range(cfg.epochs):
        s0 = 0.0
        s1 = 0.0
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
    return ModelVector(*_MODEL_WIRE.unpack(payload))


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
