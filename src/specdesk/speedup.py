"""Analytic speedup calculator for speculative decoding.

The per-token cost ratio of speculative decoding over plain autoregressive
decoding is ``(1/tau) * (d*T_d/T_t + T_v/T_t)``: per committed token the
scheme pays for ``d`` draft tokens plus one verification pass, amortized
over the average accepted length.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class SpeedupInputs:
    tau: float  # average accepted length per draft-verify iteration
    d: int  # draft tokens per step
    t_draft: float  # draft per-token latency, seconds
    t_target: float  # target per-token latency, seconds
    t_verify: float  # verification cost per step, seconds

    def __post_init__(self):
        try:
            finite = all(map(math.isfinite, astuple(self)))
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ParameterError(f"speedup inputs must be finite and within the float "
                                 f"range, got {astuple(self)}")
        if self.t_draft <= 0 or self.t_target <= 0 or self.t_verify <= 0:
            raise ParameterError("latencies must be > 0")
        if self.tau < 1:
            raise ParameterError(f"tau must be >= 1, got {self.tau}")
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class SpeedupResult:
    ratio: float  # speculative per-token time over target per-token time
    speedup: float  # 1 / ratio


def speedup_model(inp: SpeedupInputs) -> SpeedupResult:
    ratio = (1.0 / inp.tau) * (inp.d * inp.t_draft / inp.t_target
                               + inp.t_verify / inp.t_target)
    if not 0 < ratio < math.inf:
        raise ParameterError(f"the cost ratio {ratio} over- or underflows")
    return SpeedupResult(ratio=ratio, speedup=1.0 / ratio)
