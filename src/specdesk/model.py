"""Tiny decoder-only transformer with KV cache, tree masks and score capture.

Pre-norm blocks with RMS-style norms, rotary position embeddings and a
2-layer MLP. Everything runs in float64 on numpy. Positions are explicit
parameters rather than inferred from cache length, because eviction leaves
non-contiguous position sets; keys enter the cache post-rotation.

The forward pass is shared verbatim between prefill and decode so that a
one-token prefill and a one-token decode on an empty cache are bitwise
identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import attn
from .cache import KVCache
from .errors import CapacityError, ParameterError, ShapeError, StateError
from .tensor import check_finite

RMS_EPS = 1e-12
MLP_FACTOR = 4
PREFILL_BLOCK = 256


@dataclass(frozen=True)
class ModelSpec:
    n_layers: int
    n_heads: int
    d_model: int
    d_head: int
    vocab: int
    max_pos: int
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.d_model != self.n_heads * self.d_head:
            raise ParameterError(
                f"d_model ({self.d_model}) must equal n_heads*d_head "
                f"({self.n_heads}x{self.d_head})"
            )
        if self.vocab < 2:
            raise ParameterError(f"vocab must be >= 2, got {self.vocab}")
        if self.n_layers < 1:
            raise ParameterError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.n_heads < 1:
            raise ParameterError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_head < 2 or self.d_head % 2 != 0:
            raise ParameterError(f"d_head must be even and >= 2 for rotary pairs, "
                                 f"got {self.d_head}")
        if self.max_pos < 1 or self.rope_base <= 0:
            raise ParameterError("max_pos must be >= 1 and rope_base > 0")

    @property
    def d_mlp(self) -> int:
        return MLP_FACTOR * self.d_model

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers, "n_heads": self.n_heads,
            "d_model": self.d_model, "d_head": self.d_head,
            "vocab": self.vocab, "max_pos": self.max_pos,
            "rope_base": self.rope_base,
        }


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    attn_gain: np.ndarray
    mlp_gain: np.ndarray


@dataclass
class Weights:
    embed: np.ndarray  # [vocab, d_model]
    layers: list[LayerWeights] = field(default_factory=list)
    final_gain: np.ndarray = None  # [d_model]
    unembed: np.ndarray = None  # [d_model, vocab]

    def validate(self, spec: ModelSpec) -> None:
        d, v, m = spec.d_model, spec.vocab, spec.d_mlp
        expect = {"embed": (v, d), "final_gain": (d,), "unembed": (d, v)}
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            check_finite(arr, name)
        if len(self.layers) != spec.n_layers:
            raise ShapeError(f"expected {spec.n_layers} layers, got {len(self.layers)}")
        per_layer = {
            "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
            "w_in": (d, m), "w_out": (m, d), "attn_gain": (d,), "mlp_gain": (d,),
        }
        for li, lw in enumerate(self.layers):
            for name, shape in per_layer.items():
                arr = getattr(lw, name)
                if arr.shape != shape:
                    raise ShapeError(f"layers.{li}.{name} has shape {arr.shape}, expected {shape}")
                check_finite(arr, f"layers.{li}.{name}")


@dataclass
class ForwardOutput:
    logits: np.ndarray  # [q, vocab]
    last_layer_attn: np.ndarray | None = None  # [q_or_1, cache_len + q], head-averaged


# -- numerics ----------------------------------------------------------------

def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return x * gain / np.sqrt(ms + RMS_EPS)


def _silu(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = x[pos] / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = x[~pos] * ex / (1.0 + ex)
    return out


def rope_angles(d_head: int, rope_base: float) -> np.ndarray:
    """Per-pair rotation frequency in radians per position."""
    i = np.arange(d_head // 2, dtype=np.float64)
    return rope_base ** (-2.0 * i / d_head)


def rope_apply(x: np.ndarray, position: int, rope_base: float) -> np.ndarray:
    """Rotate one vector (last axis = head dim) to an absolute position."""
    if position < 0:
        raise ParameterError(f"position must be >= 0, got {position}")
    return _rope_rotate(x[None, ...], np.array([position], dtype=np.int64), rope_base)[0]


def _rope_rotate(x: np.ndarray, positions: np.ndarray, rope_base: float) -> np.ndarray:
    """Rotate a batch ``[n, ..., d_head]`` at per-row absolute positions."""
    d = x.shape[-1]
    theta = rope_angles(d, rope_base)
    ang = positions.astype(np.float64)[:, None] * theta[None, :]  # [n, d/2]
    cos, sin = np.cos(ang), np.sin(ang)
    shape = (x.shape[0],) + (1,) * (x.ndim - 2) + (d // 2,)
    cos, sin = cos.reshape(shape), sin.reshape(shape)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


# -- forward -----------------------------------------------------------------

def _heads(x: np.ndarray, w: np.ndarray, n_heads: int, d_head: int) -> np.ndarray:
    """Project ``[q, D] @ [D, D]`` and split to ``[H, q, dh]``."""
    y = x @ w
    return y.reshape(y.shape[0], n_heads, d_head).transpose(1, 0, 2)


def _forward(spec: ModelSpec, w: Weights, tokens: np.ndarray, cache: KVCache,
             positions: np.ndarray, new_mask: np.ndarray | None,
             capture_scores: bool, kv_chunk: int | None,
             capture_last_only: bool = False) -> ForwardOutput:
    q_n = tokens.shape[0]
    scale = 1.0 / np.sqrt(spec.d_head)
    if np.any(positions >= spec.max_pos):
        raise CapacityError(f"position >= max_pos ({spec.max_pos})")
    if new_mask is None:
        new_mask = np.tril(np.ones((q_n, q_n), dtype=bool))
    x = w.embed[tokens]
    new_ks: list[np.ndarray] = []
    new_vs: list[np.ndarray] = []
    captured = None
    for li, lw in enumerate(w.layers):
        xn = rms_norm(x, lw.attn_gain)
        qh = _rope_rotate(
            _heads(xn, lw.wq, spec.n_heads, spec.d_head).transpose(1, 0, 2),
            positions, spec.rope_base,
        ).transpose(1, 0, 2)
        kh = _rope_rotate(
            _heads(xn, lw.wk, spec.n_heads, spec.d_head).transpose(1, 0, 2),
            positions, spec.rope_base,
        ).transpose(1, 0, 2)
        vh = _heads(xn, lw.wv, spec.n_heads, spec.d_head)
        k_cache, v_cache, _ = cache.layer_view(li)  # [L, H, dh]
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = []
        L = k_cache.shape[0]
        if L:
            kc = k_cache.transpose(1, 0, 2)
            vc = v_cache.transpose(1, 0, 2)
            for lo, hi in attn.split_chunks(L, kv_chunk or L):
                parts.append((kc[:, lo:hi], vc[:, lo:hi], None))
        parts.append((kh, vh, new_mask))
        want = capture_scores and li == spec.n_layers - 1
        out, probs = attn.attend(qh, parts, scale, want_probs=want,
                                 last_row_only=capture_last_only)
        if want:
            captured = probs.mean(axis=0)  # head-averaged [q or 1, L+q]
        merged = out.transpose(1, 0, 2).reshape(q_n, spec.d_model)
        x = x + merged @ lw.wo
        xm = rms_norm(x, lw.mlp_gain)
        x = x + _silu(xm @ lw.w_in) @ lw.w_out
        new_ks.append(kh.transpose(1, 0, 2))
        new_vs.append(vh.transpose(1, 0, 2))
    logits = rms_norm(x, w.final_gain) @ w.unembed
    check_finite(logits, "logits")
    cache.append(new_ks, new_vs, positions)
    return ForwardOutput(logits=logits, last_layer_attn=captured)


def prefill(spec: ModelSpec, weights: Weights, tokens, cache: KVCache,
            capture_scores: bool = False) -> ForwardOutput:
    """Populate an empty cache with the whole input and return all logits.

    Runs in query blocks so long inputs never materialize an n x n
    probability matrix; with ``capture_scores`` only the final token's
    attention row is kept.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if cache.archive_len != 0:
        raise StateError("prefill requires an empty cache")
    n = tokens.shape[0]
    if n == 0:
        raise ShapeError("prefill requires at least one token")
    if n > spec.max_pos:
        raise CapacityError(f"input length {n} exceeds max_pos {spec.max_pos}")
    logits = np.empty((n, spec.vocab))
    captured = None
    for lo in range(0, n, PREFILL_BLOCK):
        hi = min(lo + PREFILL_BLOCK, n)
        last_block = hi == n
        out = _forward(
            spec, weights, tokens[lo:hi], cache,
            positions=np.arange(lo, hi, dtype=np.int64),
            new_mask=None,
            capture_scores=capture_scores and last_block,
            kv_chunk=None,
            capture_last_only=True,
        )
        logits[lo:hi] = out.logits
        if capture_scores and last_block:
            captured = out.last_layer_attn
    return ForwardOutput(logits=logits, last_layer_attn=captured)


def decode_step(spec: ModelSpec, weights: Weights, new_tokens, cache: KVCache,
                tree_mask: np.ndarray | None = None, positions=None,
                capture_scores: bool = False, kv_chunk: int | None = None) -> ForwardOutput:
    """Decode a block of new tokens against the cached context.

    Queries attend to every cache entry plus the new tokens allowed by
    ``tree_mask`` (row i, column j visible iff node j is an ancestor-or-self
    of node i); without a mask the block is causal. The cache is extended by
    the new tokens' K/V.
    """
    new_tokens = np.asarray(new_tokens, dtype=np.int64)
    q_n = new_tokens.shape[0]
    if q_n == 0:
        raise ShapeError("decode_step requires at least one new token")
    if positions is None:
        raise ShapeError("decode_step requires explicit positions")
    positions = np.asarray(positions, dtype=np.int64)
    if positions.shape[0] != q_n:
        raise ShapeError(f"{q_n} tokens but {positions.shape[0]} positions")
    if tree_mask is not None:
        tree_mask = np.asarray(tree_mask, dtype=bool)
        if tree_mask.shape != (q_n, q_n):
            raise ShapeError(f"tree mask shape {tree_mask.shape}, expected {(q_n, q_n)}")
    return _forward(spec, weights, new_tokens, cache, positions, tree_mask,
                    capture_scores, kv_chunk)


def derive_draft(spec: ModelSpec, weights: Weights, keep_layers: int) -> tuple[ModelSpec, Weights]:
    """Layer-truncated draft sharing embedding, unembedding and final norm."""
    if not 1 <= keep_layers < spec.n_layers:
        raise ParameterError(
            f"keep_layers must be in [1, {spec.n_layers - 1}], got {keep_layers}"
        )
    draft_spec = ModelSpec(
        n_layers=keep_layers, n_heads=spec.n_heads, d_model=spec.d_model,
        d_head=spec.d_head, vocab=spec.vocab, max_pos=spec.max_pos,
        rope_base=spec.rope_base,
    )
    draft_weights = Weights(
        embed=weights.embed,
        layers=weights.layers[:keep_layers],
        final_gain=weights.final_gain,
        unembed=weights.unembed,
    )
    return draft_spec, draft_weights


def next_token_dist(logits_row: np.ndarray, temperature: float) -> np.ndarray:
    """Sampling distribution for one logits row; temperature 0 is argmax."""
    if temperature < 0:
        raise ParameterError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        p = np.zeros_like(logits_row)
        p[int(np.argmax(logits_row))] = 1.0
        return p
    m = logits_row.max()
    w = np.exp((logits_row - m) / temperature)
    return w / w.sum()


# -- weight files ------------------------------------------------------------
# Format: one JSON header line {"spec": {...}, "tensors": [{name, shape,
# offset}...]} followed by the little-endian float64 payload; offsets are
# byte offsets into the payload.

LAYER_TENSORS = ("wq", "wk", "wv", "wo", "w_in", "w_out", "attn_gain", "mlp_gain")


def _tensor_items(weights: Weights) -> list[tuple[str, np.ndarray]]:
    items = [("embed", weights.embed)]
    for li, lw in enumerate(weights.layers):
        for name in LAYER_TENSORS:
            items.append((f"layers.{li}.{name}", getattr(lw, name)))
    items.append(("final_gain", weights.final_gain))
    items.append(("unembed", weights.unembed))
    return items


def save_weights(path: str, spec: ModelSpec, weights: Weights) -> None:
    weights.validate(spec)
    items = _tensor_items(weights)
    directory = []
    offset = 0
    for name, arr in items:
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    header = json.dumps({"spec": spec.to_dict(), "tensors": directory},
                        sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        for _, arr in items:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _parse_header(path: str, line: bytes) -> tuple[ModelSpec, list[dict]]:
    """The spec and tensor directory of a weight file's header line."""
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ShapeError(f"{path}: header line is not JSON ({exc})") from None
    if not (isinstance(header, dict) and isinstance(header.get("spec"), dict)
            and isinstance(header.get("tensors"), list)):
        raise ShapeError(f"{path}: header must be a JSON object with a 'spec' "
                         f"object and a 'tensors' list")
    raw = header["spec"]
    types = {f.name: f.type for f in fields(ModelSpec)}
    required = {f.name for f in fields(ModelSpec) if f.default is MISSING}
    if not required <= raw.keys() <= types.keys():
        raise ShapeError(f"{path}: spec keys missing {sorted(required - raw.keys())}, "
                         f"unknown {sorted(raw.keys() - types.keys())}")
    for name, value in raw.items():
        kinds = (int,) if types[name] == "int" else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ShapeError(f"{path}: spec {name} must be {types[name]}, got {value!r}")
    for entry in header["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("offset"), int)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(d, int) for d in entry["shape"])):
            raise ShapeError(f"{path}: malformed tensor entry {entry!r}")
    return ModelSpec(**raw), header["tensors"]


def load_weights(path: str) -> tuple[ModelSpec, Weights]:
    with open(path, "rb") as f:
        spec, tensors = _parse_header(path, f.readline())
        payload = f.read()
    names = {"embed", "final_gain", "unembed"} | {
        f"layers.{li}.{name}" for li in range(spec.n_layers) for name in LAYER_TENSORS}
    found = {entry["name"] for entry in tensors}
    if found != names:
        raise ShapeError(f"{path}: tensors missing {sorted(names - found)}, "
                         f"unexpected {sorted(found - names)}")
    arrays = {}
    for entry in tensors:
        shape, off = tuple(entry["shape"]), entry["offset"]
        count = math.prod(shape)
        if min(shape, default=0) < 0 or off < 0 or off + 8 * count > len(payload):
            raise ShapeError(f"{path}: tensor {entry['name']} of shape {list(shape)} at "
                             f"offset {off} overruns the {len(payload)}-byte payload")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=off)
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)
    layers = []
    for li in range(spec.n_layers):
        layers.append(LayerWeights(**{
            name: arrays[f"layers.{li}.{name}"] for name in LAYER_TENSORS
        }))
    weights = Weights(embed=arrays["embed"], layers=layers,
                      final_gain=arrays["final_gain"], unembed=arrays["unembed"])
    weights.validate(spec)
    return spec, weights
