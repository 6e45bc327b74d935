import numpy as np
import pytest

from specdesk.attn import attend, attend_monolithic
from specdesk.errors import InternalError


def random_part(rng, heads, width, d_head, mask=None):
    return (rng.standard_normal((heads, width, d_head)),
            rng.standard_normal((heads, width, d_head)), mask)


def test_attend_matches_monolithic_oracle():
    # Oracle: one softmax over the concatenated parts.
    rng = np.random.default_rng(20)
    for _ in range(200):
        heads, nq, d_head = int(rng.integers(1, 4)), int(rng.integers(2, 7)), 8
        q = 3.0 * rng.standard_normal((heads, nq, d_head))
        parts = [random_part(rng, heads, int(w), d_head)
                 for w in rng.integers(1, 40, size=int(rng.integers(1, 5)))]
        # Tree block: row 0 sees none of it, like a node whose siblings are
        # all later in the block; the prefix parts still give it columns.
        mask = rng.random((nq, nq)) < 0.5
        mask[0] = False
        parts.append(random_part(rng, heads, nq, d_head, mask))
        scale = 1.0 / np.sqrt(d_head)
        out, probs = attend(q, parts, scale, want_probs=True)
        want_out, want_probs = attend_monolithic(q, parts, scale, want_probs=True)
        assert np.max(np.abs(out - want_out)) < 1e-9
        assert np.max(np.abs(probs - want_probs)) < 1e-9
        assert np.all(probs[:, 0, -nq:] == 0.0)
        plain, none = attend(q, parts, scale)
        assert none is None and np.array_equal(plain, out)


def test_row_with_no_visible_position_is_an_error():
    rng = np.random.default_rng(21)
    heads, nq, d_head = 2, 3, 4
    q = rng.standard_normal((heads, nq, d_head))
    blind = np.ones((nq, 5), bool)
    blind[1] = False
    parts = [random_part(rng, heads, 5, d_head, blind),
             random_part(rng, heads, nq, d_head, np.eye(nq, dtype=bool) & blind[:, :nq])]
    for kernel in (attend, attend_monolithic):
        with pytest.raises(InternalError):
            kernel(q, parts, 0.5, want_probs=True)
