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

from .errors import ParameterError
from .tensor import Rng

FILLER_VOCAB = 16
RECALL_ID = 16
NEEDLE_ALPHABET = list(range(17, 32))


def cyclic_filler(length: int, seed: int, vocab: int = FILLER_VOCAB) -> np.ndarray:
    """Seeded permutation cycle: every token has one global successor."""
    if length < 1 or vocab < 2:
        raise ParameterError("filler needs length >= 1 and vocab >= 2")
    rng = Rng(seed)
    cycle = rng.permutation(vocab)
    phase = rng.integers(0, vocab)
    reps = -(-(length + phase) // vocab)
    return np.tile(cycle, reps)[phase:phase + length].astype(np.int64)


@dataclass
class NeedleTask:
    tokens: np.ndarray  # full prompt
    span: tuple[int, int]  # planted needle location [start, end)
    expected: list[int]  # correct continuation after the query
    query: list[int]


def gen_needle_task(filler_vocab: int, total_len: int, needle: list[int],
                    needle_pos: int, query: list[int], seed: int) -> NeedleTask:
    """Plant a needle in seeded filler and end the prompt with the query.

    The query is the needle's head, so the expected continuation is the
    rest of the needle.
    """
    needle = [int(t) for t in needle]
    query = [int(t) for t in query]
    if not needle or not query:
        raise ParameterError("needle and query must be non-empty")
    if len(query) >= len(needle) or needle[:len(query)] != query:
        raise ParameterError("query must be a proper prefix of the needle")
    if needle_pos < 0 or needle_pos + len(needle) > total_len - len(query):
        raise ParameterError(
            f"needle [{needle_pos}, {needle_pos + len(needle)}) does not fit "
            f"before the query in a {total_len}-token prompt"
        )
    tokens = cyclic_filler(total_len, seed, filler_vocab)
    tokens[needle_pos:needle_pos + len(needle)] = needle
    tokens[total_len - len(query):] = query
    return NeedleTask(tokens=tokens, span=(needle_pos, needle_pos + len(needle)),
                      expected=needle[len(query):], query=query)


def standard_needle(total_len: int, seed: int, body_len: int = 12,
                    needle_pos: int | None = None) -> NeedleTask:
    """Default needle: id token plus a distinct-token body, chunk-aligned."""
    if not 1 <= body_len <= len(NEEDLE_ALPHABET):
        raise ParameterError(f"needle_body must be in [1, {len(NEEDLE_ALPHABET)}], "
                             f"got {body_len}")
    rng = Rng(seed ^ 0x5EED)
    body = [NEEDLE_ALPHABET[i] for i in rng.permutation(len(NEEDLE_ALPHABET))[:body_len]]
    needle = [RECALL_ID] + body
    if needle_pos is None:
        needle_pos = (total_len * 3 // 8) // 32 * 32  # chunk-aligned, mid-document
    return gen_needle_task(FILLER_VOCAB, total_len, needle, needle_pos,
                           query=[RECALL_ID], seed=seed)


def loop_doc_task(total_len: int, seed: int, loop_len: int = 15,
                  needle_pos: int | None = None) -> NeedleTask:
    """Document whose recall target is an unrolled loop.

    The planted span is ``[id, B, B, B[:half]]`` with B a distinct-token
    body, so greedy continuation after the query enters B and keeps looping
    it with period ``loop_len``.
    """
    if not 1 <= loop_len <= len(NEEDLE_ALPHABET):
        raise ParameterError(f"loop_len must be in [1, {len(NEEDLE_ALPHABET)}], "
                             f"got {loop_len}")
    rng = Rng(seed ^ 0x100F)
    body = [NEEDLE_ALPHABET[i] for i in rng.permutation(len(NEEDLE_ALPHABET))[:loop_len]]
    half = loop_len // 2
    needle = [RECALL_ID] + body + body + body[:half]
    if needle_pos is None:
        needle_pos = (total_len * 3 // 8) // 32 * 32
    task = gen_needle_task(FILLER_VOCAB, total_len, needle, needle_pos,
                           query=[RECALL_ID], seed=seed)
    # Greedy continuation loops the body forever.
    reps = 8
    task.expected = (body * reps)[:loop_len * 2]
    return task
