"""Dense float64 numerics and sampling primitives.

Every module downstream operates on plain numpy float64 arrays in row-major
layout. This module pins the conventions: finiteness after public
operations, per-row max subtraction in softmax, and a single deterministic
RNG stream (PCG64) whose draw sequence is reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError

Array = np.ndarray


def check_finite(x: Array, what: str = "array") -> None:
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{what} contains non-finite values")


def matmul(a: Array, b: Array) -> Array:
    """Matrix product with explicit inner-dimension validation.

    Delegates to numpy's float64 GEMM; for fixed operand shapes the
    summation order is deterministic run to run.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    return a @ b


def softmax_rows(x: Array, temperature: float = 1.0) -> Array:
    """Softmax over the last axis with per-row max subtraction.

    Rows that contain -inf entries receive exactly zero weight there, so
    masked positions never leak probability mass.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    x = np.asarray(x, dtype=np.float64) / temperature
    m = np.max(x, axis=-1, keepdims=True)
    # Guard fully-masked rows (all -inf): shift by 0 and let them error below.
    m = np.where(np.isfinite(m), m, 0.0)
    w = np.exp(x - m)
    z = np.sum(w, axis=-1, keepdims=True)
    if np.any(z <= 0):
        raise ParameterError("softmax row has no finite entries")
    return w / z


class Rng:
    """Deterministic random stream. Identical seed => identical draws.

    Single-owner by contract: never share one instance across threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self) -> float:
        return float(self._gen.random())

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, key: int) -> "Rng":
        """Derive an independent stream from this seed and an integer key."""
        return Rng((self.seed * 0x9E3779B1 + key) % (2**63))


def sample_categorical(p: Array, rng: Rng) -> int:
    """Draw an index from a probability vector via inverse CDF.

    Consumes exactly one uniform draw.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ShapeError(f"probability vector must be 1-D, got shape {p.shape}")
    if np.any(p < 0):
        raise ParameterError("probability vector has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise ParameterError(f"probabilities sum to {total}, expected 1 within 1e-6")
    cum = np.cumsum(p)
    u = rng.uniform() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, len(p) - 1)
