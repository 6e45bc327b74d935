import numpy as np
import pytest

from specdesk import copymodel
from specdesk.cache import KVCache
from specdesk.copymodel import build_copy_model
from specdesk.errors import ParameterError
from specdesk.model import _tensor_items, decode_step, derive_draft, prefill
from specdesk.tasks import (FILLER_VOCAB, RECALL_ID, cyclic_filler,
                            gen_needle_task, loop_doc_task, standard_needle)


class TestGenerators:
    def test_needle_at_zero(self):
        task = gen_needle_task(64, [16, 20, 21], 0, [16], seed=0)
        assert task.span == (0, 3)
        assert task.tokens[:3].tolist() == [16, 20, 21]

    def test_determinism(self):
        a = gen_needle_task(128, [16, 20, 21, 22], 40, [16], seed=5)
        b = gen_needle_task(128, [16, 20, 21, 22], 40, [16], seed=5)
        assert np.array_equal(a.tokens, b.tokens)
        c = gen_needle_task(128, [16, 20, 21, 22], 40, [16], seed=6)
        assert not np.array_equal(a.tokens, c.tokens)

    def test_overflow_rejected(self):
        with pytest.raises(ParameterError):
            gen_needle_task(32, [16, 20, 21], 31, [16], seed=0)

    def test_query_is_prefix(self):
        with pytest.raises(ParameterError):
            gen_needle_task(64, [16, 20], 0, [20], seed=0)

    def test_filler_is_cyclic_and_in_range(self):
        f = cyclic_filler(100, seed=3)
        assert f.min() >= 0 and f.max() < FILLER_VOCAB
        # One global successor per token.
        succ = {}
        for a, b in zip(f[:-1], f[1:]):
            assert succ.setdefault(int(a), int(b)) == int(b)

    def test_standard_needle_layout(self):
        task = standard_needle(512, seed=1)
        start, end = task.span
        assert task.tokens[start] == RECALL_ID
        assert task.tokens[-1] == RECALL_ID
        assert len(task.expected) == 12
        assert start % 32 == 0

    def test_loop_doc_layout(self):
        task = loop_doc_task(512, seed=2, loop_len=10)
        start, end = task.span
        assert end - start == 1 + 10 + 10 + 5
        assert task.tokens[start] == RECALL_ID


def greedy_continuation(spec, w, prompt, n):
    cache = KVCache(spec.n_layers, spec.n_heads, spec.d_head, len(prompt) + n)
    logits = prefill(spec, w, prompt, cache).logits[-1]
    out = []
    pos = len(prompt)
    for _ in range(n):
        tok = int(np.argmax(logits))
        out.append(tok)
        logits = decode_step(spec, w, [tok], cache,
                             positions=np.array([pos])).logits[-1]
        pos += 1
    return out


class TestCopyModelBuild:
    def test_cached_offset_scale_equals_a_fresh_computation(self):
        copymodel._offset_scale()  # cached from here on
        assert copymodel._offset_scale() == copymodel._offset_scale.__wrapped__()

    def test_two_builds_give_bitwise_equal_weights(self):
        (sa, wa), (sb, wb) = build_copy_model(100.0), build_copy_model(100.0)
        assert sa == sb
        for (name, a), (_, b) in zip(_tensor_items(wa), _tensor_items(wb)):
            assert np.array_equal(a, b), name
        for la, lb in zip(wa.layers, wb.layers):
            assert np.array_equal(la.wqkv, lb.wqkv)


class TestTaskValidity:
    """The constructed target must reproduce the planted continuation."""

    def test_target_reproduces_needle(self):
        spec, w = build_copy_model()
        task = standard_needle(512, seed=7)
        got = greedy_continuation(spec, w, task.tokens, len(task.expected))
        assert got == task.expected

    def test_target_loops_the_doc_body(self):
        spec, w = build_copy_model(weak_match_mass=100.0)
        task = loop_doc_task(512, seed=9, loop_len=10)
        got = greedy_continuation(spec, w, task.tokens, len(task.expected))
        assert got == task.expected

    def test_draft_copies_at_short_context_with_full_cache(self):
        spec, w = build_copy_model()
        dspec, dw = derive_draft(spec, w, 2)
        task = standard_needle(512, seed=11)
        got = greedy_continuation(dspec, dw, task.tokens, len(task.expected))
        assert got == task.expected

    def test_draft_fails_at_long_context_with_full_cache(self):
        # The dilution knob: one matching position loses to background noise
        # once the cache is long enough.
        spec, w = build_copy_model()
        dspec, dw = derive_draft(spec, w, 2)
        task = standard_needle(8192, seed=11)
        got = greedy_continuation(dspec, dw, task.tokens, 4)
        assert got != task.expected[:4]

    def test_offset_head_is_sharp(self):
        # The previous-token head's score peak must dominate every other
        # offset across the whole supported range.
        from specdesk.copymodel import offset_score_profile

        profile = offset_score_profile(32768)
        peak = profile[1]
        rest = np.delete(profile, 1)
        assert peak - rest.max() > 0.4
