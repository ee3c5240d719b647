"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own code paths: the PRNG
oracle runs on numpy's wrapping uint64 arithmetic, the loss/gradient oracle
uses finite differences of a from-scratch sigmoid, the mean oracle is a
plain left fold, and the standardization oracle uses exact fractions.
Agreement between package and oracle is the evidence.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """The splitmix64 output sequence via numpy uint64 arithmetic."""
    out = []
    with np.errstate(over="ignore"):
        state = np.uint64(seed)
        for _ in range(count):
            state = state + np.uint64(0x9E3779B97F4A7C15)
            z = state
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            out.append(int(z ^ (z >> np.uint64(31))))
    return out


def shuffle_replay(n: int, seed: int) -> list[int]:
    """Replay the documented shuffle: high-to-low swaps, modulo reduction."""
    draws = splitmix64_stream(seed, max(n - 1, 0))
    items = list(range(n))
    for step, i in enumerate(range(n - 1, 0, -1)):
        j = draws[step] % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def sse_loss(X, Y, b0: float, b1: float) -> float:
    """Sum of squared residuals through a from-scratch sigmoid."""
    total = 0.0
    for x, y in zip(X, Y):
        p = 1.0 / (1.0 + math.exp(-(b0 + b1 * x)))
        total += (y - p) ** 2
    return total


def fd_gradient(X, Y, b0: float, b1: float, h: float = 1e-6) -> tuple[float, float]:
    """Central finite differences of the squared-error loss."""
    d_b0 = (sse_loss(X, Y, b0 + h, b1) - sse_loss(X, Y, b0 - h, b1)) / (2 * h)
    d_b1 = (sse_loss(X, Y, b0, b1 + h) - sse_loss(X, Y, b0, b1 - h)) / (2 * h)
    return d_b0, d_b1


def fold_mean(values) -> float:
    """Accumulate left to right, then divide: the documented summation order."""
    total = 0.0
    for v in values:
        total = total + v
    return total / len(values)


def exact_standardize(xs) -> tuple[list[float], Decimal]:
    """Standardized values and the sample std (n - 1) of ``xs``, from an exact
    rational mean and exact squared deviations; only the square root and
    the final divisions round, to 60 digits, before the outputs round to
    the nearest float."""
    n = len(xs)
    mean = sum(map(Fraction, xs)) / n
    devs = [Fraction(x) - mean for x in xs]
    var = sum(d * d for d in devs) / (n - 1)
    with localcontext() as ctx:
        ctx.prec = 60
        s = (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()
        zs = [float(Decimal(d.numerator) / Decimal(d.denominator) / s) for d in devs]
    return zs, s
