import warnings

import numpy as np
import pytest

from specdesk.cache import KVCache
from specdesk.errors import CapacityError, ParameterError, ShapeError, StateError
from specdesk.model import (PREFILL_BLOCK, RMS_EPS, LayerWeights, ModelSpec,
                            _causal_mask, _rope_rotate, _silu, decode_step,
                            derive_draft, load_weights, next_token_dist, prefill,
                            rms_norm, rope_angles, save_weights)
from specdesk.modelgen import random_weights


def small_model(seed=0, n_layers=2, vocab=17, n_heads=2, d_head=8, max_pos=512):
    spec = ModelSpec(n_layers=n_layers, n_heads=n_heads, d_model=n_heads * d_head,
                     d_head=d_head, vocab=vocab, max_pos=max_pos)
    return spec, random_weights(spec, seed)


def fresh_cache(spec, capacity=64):
    return KVCache(spec.n_layers, spec.n_heads, spec.d_head, capacity)


def rope_one(x, position, base):
    return _rope_rotate(x[None], np.array([position]), base)[0]


class TestRope:
    def test_position_zero_identity(self):
        x = np.random.default_rng(0).standard_normal(8)
        assert np.allclose(rope_one(x, 0, 10000.0), x)

    def test_pair_norm_preserved(self):
        x = np.random.default_rng(1).standard_normal(16)
        y = rope_one(x, 37, 10000.0)
        for i in range(0, 16, 2):
            before = np.hypot(x[i], x[i + 1])
            after = np.hypot(y[i], y[i + 1])
            assert abs(before - after) < 1e-12

    def test_closed_form_position_5(self):
        # Oracle: direct sin/cos of the rotation angle per pair.
        d, base, pos = 8, 10000.0, 5
        x = np.zeros(d)
        x[0::2] = 1.0  # unit in each pair's first component
        got = rope_one(x, pos, base)
        for i in range(d // 2):
            theta = base ** (-2.0 * i / d) * pos
            assert got[2 * i] == pytest.approx(np.cos(theta), abs=1e-12)
            assert got[2 * i + 1] == pytest.approx(np.sin(theta), abs=1e-12)


def rope_pairs_oracle(x, positions, base):
    """Rotary embedding written pair by pair, recomputing every angle."""
    d = x.shape[-1]
    out = np.empty_like(x)
    for n, pos in enumerate(positions):
        for i in range(d // 2):
            ang = float(pos) * base ** (-2.0 * i / d)
            c, s = np.cos(ang), np.sin(ang)
            even, odd = x[n, ..., 2 * i], x[n, ..., 2 * i + 1]
            out[n, ..., 2 * i] = even * c - odd * s
            out[n, ..., 2 * i + 1] = even * s + odd * c
    return out


class TestRopeBatch:
    def test_joint_rotation_equals_the_pair_oracle(self):
        # q and k rotated in one call, as the forward pass does: [n, 2H, dh].
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 4, 8))
        positions = np.array([0, 3, 3, 70, 511])
        got = _rope_rotate(x, positions, 10000.0)
        assert np.max(np.abs(got - rope_pairs_oracle(x, positions, 10000.0))) < 1e-12
        q = _rope_rotate(x[:, :2], positions, 10000.0)
        k = _rope_rotate(x[:, 2:], positions, 10000.0)
        assert np.array_equal(got, np.concatenate([q, k], axis=1))

    def test_cached_angles_are_read_only(self):
        theta = rope_angles(8, 10000.0)
        assert rope_angles(8, 10000.0) is theta
        with pytest.raises(ValueError):
            theta[0] = 2.0


def silu_oracle(x):
    """The branched logistic form: exp never sees a positive argument."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = x[pos] / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = x[~pos] * ex / (1.0 + ex)
    return out


def rms_norm_oracle(x, gain):
    return x * gain / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)


class TestNumerics:
    def test_silu_matches_the_logistic_form_without_warnings(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 200001),
                            [-800.0, 800.0, -1e300, 1e300, 0.0, -0.0, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _silu(x)
        assert np.max(np.abs(got - silu_oracle(x))) < 1e-13
        assert got[-5] == 0.0 and got[-4] == 1e300

    def test_rms_norm_is_bitwise_the_mean_form(self):
        rng = np.random.default_rng(8)
        for shape in [(1, 16), (7, 128), (256, 128)]:
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, (shape[0], 1))
            gain = rng.standard_normal(shape[1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rms_norm(x, gain)
            assert np.array_equal(got, rms_norm_oracle(x, gain))

    def test_causal_mask_is_cached_and_read_only(self):
        mask = _causal_mask(5)
        assert _causal_mask(5) is mask
        assert np.array_equal(mask, np.tril(np.ones((5, 5), dtype=bool)))
        with pytest.raises(ValueError):
            mask[0, 1] = True


class TestFusedProjection:
    def test_in_place_edits_show_in_the_fused_weight(self):
        spec, w = small_model()
        lw = w.layers[0]
        d = spec.d_model
        assert lw.wqkv.shape == (d, 3 * d)
        for col, name in enumerate(("wq", "wk", "wv")):
            getattr(lw, name)[1, 2] = 7.5 + col
            assert lw.wqkv[1, col * d + 2] == 7.5 + col
        lw.wk[...] = 0.0
        assert not lw.wqkv[:, d:2 * d].any()

    def test_the_draft_shares_the_fused_weight(self):
        spec, w = small_model(n_layers=2)
        _, dw = derive_draft(spec, w, 1)
        assert dw.layers[0].wqkv is w.layers[0].wqkv

    def test_mismatched_projections_are_a_shape_error(self):
        d = np.zeros((4, 4))
        with pytest.raises(ShapeError, match="wq, wk and wv"):
            LayerWeights(wq=d, wk=np.zeros((4, 5)), wv=d, wo=d, w_in=d, w_out=d,
                         attn_gain=np.ones(4), mlp_gain=np.ones(4))


class TestPrefillDecodeEquivalence:
    def test_single_token_exact(self):
        spec, w = small_model()
        c1, c2 = fresh_cache(spec), fresh_cache(spec)
        a = prefill(spec, w, [3], c1)
        b = decode_step(spec, w, [3], c2, positions=np.array([0]))
        assert np.array_equal(a.logits, b.logits)

    def test_incremental_matches_full_recompute(self):
        spec, w = small_model(seed=5)
        tokens = [1, 4, 2, 9, 16, 0, 7]
        c1 = fresh_cache(spec)
        prefill(spec, w, tokens[:-1], c1)
        inc = decode_step(spec, w, [tokens[-1]], c1,
                          positions=np.array([len(tokens) - 1]))
        c2 = fresh_cache(spec)
        full = prefill(spec, w, tokens, c2)
        assert np.max(np.abs(inc.logits[0] - full.logits[-1])) < 1e-9

    def test_capture_flag_contract(self):
        spec, w = small_model()
        out = prefill(spec, w, [1, 2, 3], fresh_cache(spec), capture_scores=False)
        assert out.last_layer_attn is None

    def test_prefill_capture_keeps_the_full_block_row(self):
        # The captured row is the last row of the full last-block result,
        # bitwise: a recomputed row can flip a retrieval top-k near-tie.
        spec, w = small_model(seed=5)
        n, last = PREFILL_BLOCK + 44, PREFILL_BLOCK
        tokens = list(np.random.default_rng(6).integers(0, 17, n))
        got = prefill(spec, w, tokens, fresh_cache(spec, n), capture_scores=True)
        cache = fresh_cache(spec, n)
        prefill(spec, w, tokens[:last], cache)
        block = decode_step(spec, w, tokens[last:], cache,
                            positions=np.arange(last, n), capture_scores=True)
        assert got.last_layer_attn.shape == (1, n)
        assert np.array_equal(got.last_layer_attn[0], block.last_layer_attn[-1])

    def test_prefill_requires_empty_cache(self):
        spec, w = small_model()
        cache = fresh_cache(spec)
        prefill(spec, w, [1], cache)
        with pytest.raises(StateError):
            prefill(spec, w, [2], cache)

    def test_prefill_capacity(self):
        spec, w = small_model(max_pos=8)
        with pytest.raises(CapacityError):
            prefill(spec, w, list(range(9)) + [0], fresh_cache(spec))

    def test_kv_incremental_random_sequences(self):
        # Property: incremental decoding == full-sequence recomputation.
        rng = np.random.default_rng(11)
        for trial in range(10):
            spec, w = small_model(seed=trial, n_layers=int(rng.integers(1, 4)))
            n = int(rng.integers(2, 40))
            tokens = rng.integers(0, spec.vocab, n).tolist()
            c1 = fresh_cache(spec)
            got = np.empty((n, spec.vocab))
            got[0] = prefill(spec, w, tokens[:1], c1).logits[0]
            for t in range(1, n):
                got[t] = decode_step(spec, w, [tokens[t]], c1,
                                     positions=np.array([t])).logits[0]
            want = prefill(spec, w, tokens, fresh_cache(spec)).logits
            assert np.max(np.abs(got - want)) < 1e-9


class TestLastRowPrefill:
    # n straddles the prefill block edges; with one layer the first layer
    # is also the last, the one that runs for the last row only.
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, PREFILL_BLOCK - 1, PREFILL_BLOCK,
                                   PREFILL_BLOCK + 1, 600])
    def test_matches_the_all_row_prefill(self, n, n_layers):
        spec, w = small_model(seed=n + n_layers, n_layers=n_layers, max_pos=1024)
        tokens = np.random.default_rng(n).integers(0, spec.vocab, n)
        every, last = fresh_cache(spec, n), fresh_cache(spec, n)
        want = prefill(spec, w, tokens, every, capture_scores=True)
        got = prefill(spec, w, tokens, last, True, last_row_only=True)
        assert want.logits.shape == (n, spec.vocab)
        assert got.logits.shape == (1, spec.vocab)
        assert np.max(np.abs(got.logits[-1] - want.logits[-1])) < 1e-12
        assert got.last_layer_attn.shape == want.last_layer_attn.shape == (1, n)
        assert np.max(np.abs(got.last_layer_attn - want.last_layer_attn)) < 1e-12
        assert np.array_equal(last.layer_view(0)[2], every.layer_view(0)[2])
        for li in range(n_layers):
            for a, b in zip(last.layer_view(li), every.layer_view(li)):
                assert np.array_equal(a, b)


class TestDecodeStep:
    def test_empty_block_rejected(self):
        spec, w = small_model()
        with pytest.raises(ShapeError):
            decode_step(spec, w, [], fresh_cache(spec), positions=np.array([]))

    def test_mask_row_mismatch(self):
        spec, w = small_model()
        cache = fresh_cache(spec)
        prefill(spec, w, [1], cache)
        with pytest.raises(ShapeError):
            decode_step(spec, w, [1, 2], cache, tree_mask=np.ones((3, 3), bool),
                        positions=np.array([1, 1]))

    def test_chain_mask_equals_sequential(self):
        spec, w = small_model(seed=3)
        prompt = [2, 5, 1]
        chain = [4, 0, 3]
        c1 = fresh_cache(spec)
        prefill(spec, w, prompt, c1)
        mask = np.tril(np.ones((3, 3), bool))
        batch = decode_step(spec, w, chain, c1, tree_mask=mask,
                            positions=np.arange(3, 6))
        c2 = fresh_cache(spec)
        prefill(spec, w, prompt, c2)
        seq = np.stack([
            decode_step(spec, w, [chain[i]], c2, positions=np.array([3 + i])).logits[0]
            for i in range(3)
        ])
        assert np.max(np.abs(batch.logits - seq)) < 1e-9

    def test_capture_scores_normalized(self):
        spec, w = small_model()
        cache = fresh_cache(spec)
        prefill(spec, w, list(range(8)), cache)
        out = decode_step(spec, w, [3], cache, positions=np.array([8]),
                          capture_scores=True)
        row = out.last_layer_attn[0]
        assert row.shape == (9,)
        assert abs(row.sum() - 1.0) < 1e-6
        assert np.all(row >= 0)

    def test_masked_positions_exactly_zero(self):
        spec, w = small_model(seed=9)
        cache = fresh_cache(spec)
        prefill(spec, w, [1, 2], cache)
        # Two siblings: neither sees the other.
        mask = np.eye(2, dtype=bool)
        out = decode_step(spec, w, [5, 6], cache, tree_mask=mask,
                          positions=np.array([2, 2]), capture_scores=True)
        attn = out.last_layer_attn
        assert attn[0, 3] == 0.0  # row 0 never attends to sibling column
        assert attn[1, 2] == 0.0

    def test_hybrid_chunked_path_matches_monolithic(self):
        spec, w = small_model(seed=13)
        tokens = list(np.random.default_rng(4).integers(0, 17, 50))
        c1, c2 = fresh_cache(spec), fresh_cache(spec)
        prefill(spec, w, tokens, c1)
        prefill(spec, w, tokens, c2)
        mono = decode_step(spec, w, [3, 1], c1, positions=np.array([50, 51]),
                           capture_scores=True)
        hyb = decode_step(spec, w, [3, 1], c2, positions=np.array([50, 51]),
                          capture_scores=True, kv_chunk=7)
        assert np.max(np.abs(mono.logits - hyb.logits)) < 1e-9
        assert np.max(np.abs(mono.last_layer_attn - hyb.last_layer_attn)) < 1e-9


class TestOutRows:
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("q_n", [1, 5])
    def test_last_row_matches_the_all_row_pass(self, n_layers, q_n):
        spec, w = small_model(seed=q_n + n_layers, n_layers=n_layers)
        tokens = list(np.random.default_rng(q_n).integers(0, spec.vocab, 30 + q_n))
        every, last = fresh_cache(spec), fresh_cache(spec)
        for cache in (every, last):
            prefill(spec, w, tokens[:30], cache)
        positions = np.arange(30, 30 + q_n)
        want = decode_step(spec, w, tokens[30:], every, positions=positions)
        got = decode_step(spec, w, tokens[30:], last, positions=positions, out_rows=1)
        assert got.logits.shape == (1, spec.vocab)
        assert np.max(np.abs(got.logits[0] - want.logits[-1])) < 1e-12
        assert np.array_equal(last.layer_view(0)[2], every.layer_view(0)[2])
        for li in range(n_layers):
            for a, b in zip(last.layer_view(li), every.layer_view(li)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("out_rows", [0, 3])
    def test_out_of_range_is_a_shape_error(self, out_rows):
        spec, w = small_model()
        with pytest.raises(ShapeError, match="out_rows"):
            decode_step(spec, w, [1, 2], fresh_cache(spec), positions=np.array([0, 1]),
                        out_rows=out_rows)


class TestDeriveDraft:
    def test_rejects_full_depth(self):
        spec, w = small_model(n_layers=2)
        with pytest.raises(ParameterError):
            derive_draft(spec, w, 2)
        with pytest.raises(ParameterError):
            derive_draft(spec, w, 0)

    def test_shares_embeddings(self):
        spec, w = small_model(n_layers=2)
        dspec, dw = derive_draft(spec, w, 1)
        assert dspec.n_layers == 1
        assert dw.embed is w.embed
        assert dw.unembed is w.unembed
        assert dw.layers[0] is w.layers[0]

    def test_derived_beats_random_draft_on_acceptance(self):
        # Oracle: A/B greedy-agreement measurement over 2000 steps.
        spec, w = small_model(seed=21, n_layers=2, vocab=29, max_pos=4096)
        derived_spec, derived_w = derive_draft(spec, w, 1)
        rand_w = random_weights(derived_spec, seed=999)

        def agreement(draft_w):
            tc = fresh_cache(spec, 2001)
            dc = fresh_cache(derived_spec, 2001)
            tok = 1
            t_logits = prefill(spec, w, [tok], tc).logits[-1]
            d_logits = prefill(derived_spec, draft_w, [tok], dc).logits[-1]
            agree = 0
            for pos in range(1, 2001):
                t_next = int(np.argmax(t_logits))
                d_next = int(np.argmax(d_logits))
                agree += t_next == d_next
                t_logits = decode_step(spec, w, [t_next], tc,
                                       positions=np.array([pos])).logits[-1]
                d_logits = decode_step(derived_spec, draft_w, [t_next], dc,
                                       positions=np.array([pos])).logits[-1]
            return agree / 2000

    # Derived draft shares the first layer and output head with the target.
        assert agreement(derived_w) > agreement(rand_w)


class TestNextTokenDist:
    def test_greedy_is_argmax_onehot(self):
        p = next_token_dist(np.array([0.1, 3.0, -1.0]), 0.0)
        assert np.array_equal(p, np.array([0.0, 1.0, 0.0]))

    def test_temperature_softmax(self):
        p = next_token_dist(np.array([1.0, 2.0]), 0.5)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p[1] > p[0]


class TestWeightFiles:
    def test_roundtrip(self, tmp_path):
        spec, w = small_model(seed=2)
        path = str(tmp_path / "m.bin")
        save_weights(path, spec, w)
        spec2, w2 = load_weights(path)
        assert spec2 == spec
        assert np.array_equal(w2.embed, w.embed)
        assert np.array_equal(w2.layers[1].w_out, w.layers[1].w_out)

    def test_roundtrip_is_bitwise(self, tmp_path):
        spec, w = small_model(seed=4, n_layers=3)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_weights(str(first), spec, w)
        _, loaded = load_weights(str(first))
        for name in ("embed", "final_gain", "unembed"):
            assert np.array_equal(getattr(loaded, name), getattr(w, name))
        for a, b in zip(loaded.layers, w.layers):
            for name in ("wq", "wk", "wv", "wqkv", "wo", "w_in", "w_out",
                         "attn_gain", "mlp_gain"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        save_weights(str(second), spec, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_header_line_is_pinned(self, tmp_path):
        # The header a small random spec's file has always had.
        spec = ModelSpec(n_layers=1, n_heads=2, d_model=4, d_head=2, vocab=3,
                         max_pos=64, rope_base=500.0)
        path = tmp_path / "m.bin"
        save_weights(str(path), spec, random_weights(spec, 3))
        head, payload = path.read_bytes().split(b"\n", 1)
        assert head == (
            b'{"spec":{"d_head":2,"d_model":4,"max_pos":64,"n_heads":2,"n_layers":1,'
            b'"rope_base":500.0,"vocab":3},"tensors":['
            b'{"name":"embed","offset":0,"shape":[3,4]},'
            b'{"name":"layers.0.wq","offset":96,"shape":[4,4]},'
            b'{"name":"layers.0.wk","offset":224,"shape":[4,4]},'
            b'{"name":"layers.0.wv","offset":352,"shape":[4,4]},'
            b'{"name":"layers.0.wo","offset":480,"shape":[4,4]},'
            b'{"name":"layers.0.w_in","offset":608,"shape":[4,16]},'
            b'{"name":"layers.0.w_out","offset":1120,"shape":[16,4]},'
            b'{"name":"layers.0.attn_gain","offset":1632,"shape":[4]},'
            b'{"name":"layers.0.mlp_gain","offset":1664,"shape":[4]},'
            b'{"name":"final_gain","offset":1696,"shape":[4]},'
            b'{"name":"unembed","offset":1728,"shape":[4,3]}]}')
        assert len(payload) == 1824

    def test_same_seed_byte_identical(self, tmp_path):
        spec, _ = small_model()
        from specdesk.modelgen import gen_model

        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        gen_model(p1, "random", 7, spec=spec)
        gen_model(p2, "random", 7, spec=spec)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_validates_shapes(self, tmp_path):
        spec, w = small_model()
        path = str(tmp_path / "m.bin")
        save_weights(path, spec, w)
        raw = open(path, "rb").read()
        header, payload = raw.split(b"\n", 1)
        import json

        h = json.loads(header)
        h["spec"]["vocab"] = 99  # now embed shape no longer matches
        broken = json.dumps(h).encode() + b"\n" + payload
        bad = tmp_path / "bad.bin"
        bad.write_bytes(broken)
        with pytest.raises((ShapeError, ValueError)):
            load_weights(str(bad))

    def test_truncated_or_incomplete_file_is_a_shape_error(self, tmp_path):
        spec, w = small_model()
        path = tmp_path / "m.bin"
        save_weights(str(path), spec, w)
        raw = path.read_bytes()
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(raw[:-8])
        with pytest.raises(ShapeError, match="overruns"):
            load_weights(str(truncated))
        renamed = tmp_path / "renamed.bin"
        renamed.write_bytes(raw.replace(b'"unembed"', b'"unembedX"', 1))
        with pytest.raises(ShapeError, match="missing"):
            load_weights(str(renamed))


class TestModelSpecValidation:
    def test_dims_must_agree(self):
        with pytest.raises(ParameterError):
            ModelSpec(n_layers=1, n_heads=2, d_model=30, d_head=8, vocab=4, max_pos=16)

    def test_vocab_floor(self):
        with pytest.raises(ParameterError):
            ModelSpec(n_layers=1, n_heads=1, d_model=8, d_head=8, vocab=1, max_pos=16)

    @pytest.mark.parametrize("rope_base", [0.0, -1.0, float("nan"), float("inf")])
    def test_rope_base_must_be_finite_and_positive(self, rope_base):
        with pytest.raises(ParameterError, match="rope_base"):
            ModelSpec(n_layers=1, n_heads=1, d_model=8, d_head=8, vocab=4, max_pos=16,
                      rope_base=rope_base)
