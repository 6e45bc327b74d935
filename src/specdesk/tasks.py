"""Synthetic prompt generators for the copy model's vocabulary.

The vocabulary splits into a filler region (a globally consistent cycle, so
its continuation is predictable from any cache), one recall-id region and a
needle alphabet. A needle is an id token followed by distinct body tokens;
the prompt ends with the id as the query, which makes the body the unique
correct continuation for any model that can match previous-token identity.

The document task plants an *unrolled loop* instead of a plain body: the
body repeats 2.5 times, so the loop-continuation bigram outvotes the exit
bigram 2:1 and greedy generation keeps cycling the body. Its evidence is a
handful of planted copies plus the model's own recent output, which is the
regime where cache policies separate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .tensor import Rng

FILLER_VOCAB = 16
RECALL_ID = 16
NEEDLE_ALPHABET = list(range(17, 32))


def cyclic_filler(length: int, seed: int) -> np.ndarray:
    """Seeded permutation cycle over the filler region: every token has one
    global successor."""
    if length < 1:
        raise ParameterError("filler needs length >= 1")
    rng = Rng(seed)
    cycle = rng.permutation(FILLER_VOCAB)
    phase = rng.integers(0, FILLER_VOCAB)
    reps = -(-(length + phase) // FILLER_VOCAB)
    try:
        return np.tile(cycle, reps)[phase:phase + length].astype(np.int64)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise CapacityError(f"cannot allocate a {length}-token prompt") from None


@dataclass
class NeedleTask:
    tokens: np.ndarray  # full prompt
    span: tuple[int, int]  # planted needle location [start, end)
    expected: list[int]  # correct continuation after the query


def gen_needle_task(total_len: int, needle: list[int], needle_pos: int | None,
                    seed: int) -> NeedleTask:
    """Plant a needle in seeded filler and end the prompt with the recall id.

    The needle is the recall id and its body, so the expected continuation
    is the body. ``needle_pos`` None puts the needle chunk-aligned in the
    middle of the document.
    """
    needle = [int(t) for t in needle]
    if needle_pos is None:
        needle_pos = (total_len * 3 // 8) // 32 * 32
    if needle_pos < 0 or needle_pos + len(needle) > total_len - 1:
        raise ParameterError(
            f"needle [{needle_pos}, {needle_pos + len(needle)}) does not fit "
            f"before the query in a {total_len}-token prompt"
        )
    tokens = cyclic_filler(total_len, seed)
    tokens[needle_pos:needle_pos + len(needle)] = needle
    tokens[-1] = RECALL_ID
    return NeedleTask(tokens=tokens, span=(needle_pos, needle_pos + len(needle)),
                      expected=needle[1:])


def _distinct_body(length: int, seed: int, salt: int, key: str) -> list[int]:
    """``length`` distinct needle-alphabet tokens drawn from ``seed ^ salt``;
    ``seed`` is checked as given, ``key`` names ``length`` in errors."""
    if not 1 <= length <= len(NEEDLE_ALPHABET):
        raise ParameterError(f"{key} must be in [1, {len(NEEDLE_ALPHABET)}], "
                             f"got {length}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    order = Rng(seed ^ salt).permutation(len(NEEDLE_ALPHABET))
    return [NEEDLE_ALPHABET[i] for i in order[:length]]


def standard_needle(total_len: int, seed: int, body_len: int = 12,
                    needle_pos: int | None = None) -> NeedleTask:
    """Default needle: id token plus a distinct-token body, chunk-aligned."""
    needle = [RECALL_ID] + _distinct_body(body_len, seed, 0x5EED, "needle_body")
    return gen_needle_task(total_len, needle, needle_pos, seed=seed)


def loop_doc_task(total_len: int, seed: int, loop_len: int = 15,
                  needle_pos: int | None = None) -> NeedleTask:
    """Document whose recall target is an unrolled loop.

    The planted span is ``[id, B, B, B[:half]]`` with B a distinct-token
    body, so greedy continuation after the query enters B and keeps looping
    it with period ``loop_len``.
    """
    body = _distinct_body(loop_len, seed, 0x100F, "loop_len")
    half = loop_len // 2
    needle = [RECALL_ID] + body + body + body[:half]
    task = gen_needle_task(total_len, needle, needle_pos, seed=seed)
    task.expected = body * 2  # greedy continuation loops the body forever
    return task
