"""Tiny decoder-only transformer with KV cache, tree masks and score capture.

Pre-norm blocks with RMS-style norms, rotary position embeddings and a
2-layer MLP. Everything runs in float64 on numpy. Positions are explicit
parameters rather than inferred from cache length, because eviction leaves
non-contiguous position sets; keys enter the cache post-rotation.

The forward pass is shared verbatim between prefill and decode so that a
one-token prefill and a one-token decode on an empty cache are bitwise
identical. Attention reads the cache's ``[H, L, dh]`` views in place: keys
head-major, values dh-major underneath (``KVCache`` or ``DraftCache``
``.layer_parts``). A prefill scores its 256-row blocks one head at a time
into one buffer, allocated once and sized for one head's largest block.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import attn
from .cache import DraftCache, KVCache
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
        if self.max_pos < 1:
            raise ParameterError(f"max_pos must be >= 1, got {self.max_pos}")
        if not (math.isfinite(self.rope_base) and self.rope_base > 0):
            raise ParameterError(f"rope_base must be finite and > 0, got {self.rope_base}")

    @property
    def d_mlp(self) -> int:
        return MLP_FACTOR * self.d_model


@dataclass
class LayerWeights:
    """One block's weights.

    ``wq``, ``wk`` and ``wv`` become column views of ``wqkv``, the fused
    ``[D, 3D]`` projection built here, so the forward pass projects once per
    layer and an in-place edit of ``wq``/``wk``/``wv`` shows in ``wqkv``.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    attn_gain: np.ndarray
    mlp_gain: np.ndarray
    wqkv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = {np.shape(w) for w in (self.wq, self.wk, self.wv)}
        if len(shapes) != 1 or len(np.shape(self.wq)) != 2:
            raise ShapeError(f"wq, wk and wv must share one 2-D shape, got {sorted(shapes)}")
        self.wqkv = np.concatenate([self.wq, self.wk, self.wv], axis=1)
        d = self.wqkv.shape[1] // 3
        self.wq, self.wk, self.wv = (self.wqkv[:, i * d:(i + 1) * d] for i in range(3))


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
    logits: np.ndarray  # [q, vocab], or the last rows only
    last_layer_attn: np.ndarray | None = None  # [q_or_1, cache_len + q], head-averaged
    ks: list[np.ndarray] | None = None  # a block not appended: its K per layer, [q, H, dh]
    vs: list[np.ndarray] | None = None  # and its V


# -- numerics ----------------------------------------------------------------

def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # np.mean's own sum without its Python wrappers: bitwise the same result.
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return x * gain / np.sqrt(ms + RMS_EPS)


def _silu(x: np.ndarray) -> np.ndarray:
    """``x * sigmoid(x)`` as ``h + h * tanh(h)`` with ``h = x / 2``.

    ``tanh`` saturates instead of overflowing, so no branch is needed.
    """
    h = 0.5 * x
    out = np.tanh(h)
    out *= h
    out += h
    return out


@functools.lru_cache(maxsize=16)
def rope_angles(d_head: int, rope_base: float) -> np.ndarray:
    """Per-pair rotation frequency in radians per position (read-only)."""
    i = np.arange(d_head // 2, dtype=np.float64)
    theta = rope_base ** (-2.0 * i / d_head)
    theta.setflags(write=False)
    return theta


def _rope_rotate(x: np.ndarray, positions: np.ndarray, rope_base: float) -> np.ndarray:
    """Rotate a batch ``[n, ..., d_head]`` at per-row absolute positions."""
    d = x.shape[-1]
    ang = positions.astype(np.float64)[:, None] * rope_angles(d, rope_base)
    shape = (x.shape[0],) + (1,) * (x.ndim - 2) + (d // 2,)
    cos, sin = np.cos(ang).reshape(shape), np.sin(ang).reshape(shape)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


@functools.lru_cache(maxsize=64)
def _causal_mask(n: int) -> np.ndarray:
    """The read-only ``[n, n]`` lower-triangular visibility mask."""
    mask = np.tril(np.ones((n, n), dtype=bool))
    mask.setflags(write=False)
    return mask


# -- forward -----------------------------------------------------------------

def _forward(spec: ModelSpec, w: Weights, tokens: np.ndarray, cache: KVCache | DraftCache,
             positions: np.ndarray, new_mask: np.ndarray | None,
             capture_scores: bool, kv_chunk: int | None,
             out_rows: int | None = None,
             scores: np.ndarray | None = None, append: bool = True,
             tree: list[tuple[np.ndarray, np.ndarray]] | None = None) -> ForwardOutput:
    """One forward pass over a block; its K/V are appended to ``cache``, or
    without ``append`` returned in the output.

    ``tree`` holds per layer the ``[H, N, dh]`` K/V of tree rows decoded
    before, read after the cache's rows. A ``new_mask`` of shape
    ``[q, T + q]`` reads the last ``T`` of them as their own masked part;
    the tree rows before those are visible to every query, and the block's
    own columns come last.
    With ``out_rows`` the last layer projects K/V for every row but runs
    attention, the MLP and the unembed only for the trailing ``out_rows``
    rows (none for 0), so logits and captured rows cover just those.
    ``scores`` is the attention score buffer (see ``attn.attend``); with it
    only the last row's attention is captured.
    """
    q_n = tokens.shape[0]
    H, dh, D = spec.n_heads, spec.d_head, spec.d_model
    scale = 1.0 / np.sqrt(dh)
    if np.any(positions >= spec.max_pos):
        raise CapacityError(f"position >= max_pos ({spec.max_pos})")
    if np.any(positions < 0):
        raise ParameterError("positions must be >= 0")
    if new_mask is None:
        new_mask = _causal_mask(q_n)
    tail = new_mask.shape[1] - q_n
    x = w.embed[tokens]
    new_ks: list[np.ndarray] = []
    new_vs: list[np.ndarray] = []
    captured = None
    for li, lw in enumerate(w.layers):
        xn = rms_norm(x, lw.attn_gain)
        last = li == spec.n_layers - 1
        if last and out_rows is not None:
            # K/V for every row, Q for the trailing rows only.
            rows = slice(q_n - out_rows, None)
            kv = (xn @ lw.wqkv[:, D:]).reshape(q_n, 2 * H, dh)
            k, v = _rope_rotate(kv[:, :H], positions, spec.rope_base), kv[:, H:]
            x, new_mask = x[rows], new_mask[rows]
            q = _rope_rotate((xn[rows] @ lw.wq).reshape(-1, H, dh),
                             positions[rows], spec.rope_base)
        else:
            qkv = (xn @ lw.wqkv).reshape(q_n, 3 * H, dh)
            qk = _rope_rotate(qkv[:, :2 * H], positions, spec.rope_base)
            q, k, v = qk[:, :H], qk[:, H:], qkv[:, 2 * H:]
        new_ks.append(k)
        new_vs.append(v)
        if last and out_rows == 0:  # a prefill block before the last: K/V only
            break
        blocks = cache.layer_parts(li)  # [H, L, dh] each
        if tree:
            kt, vt = tree[li]
            P = kt.shape[1] - tail  # tree rows every query sees
            blocks.append((kt[:, :P], vt[:, :P]))
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = []
        for kb, vb in blocks:
            for lo, hi in attn.split_chunks(kb.shape[1], kv_chunk or kb.shape[1] or 1):
                parts.append((kb[:, lo:hi], vb[:, lo:hi], None))
        if tail:
            parts.append((kt[:, P:], vt[:, P:], new_mask[:, :tail]))
        parts.append((k.transpose(1, 0, 2), v.transpose(1, 0, 2), new_mask[:, tail:]))
        want = capture_scores and last
        out, probs = attn.attend(q.transpose(1, 0, 2), parts, scale, want_probs=want,
                                 scores=scores)
        if want:
            captured = probs.mean(axis=0)  # head-averaged [q or 1, L+q]
        x += out.transpose(1, 0, 2).reshape(x.shape[0], D) @ lw.wo
        x += _silu(rms_norm(x, lw.mlp_gain) @ lw.w_in) @ lw.w_out
    logits = rms_norm(x, w.final_gain) @ w.unembed
    check_finite(logits, "logits")
    if not append:  # the caller appends the rows it keeps
        return ForwardOutput(logits, captured, new_ks, new_vs)
    cache.append(new_ks, new_vs, positions)
    return ForwardOutput(logits=logits, last_layer_attn=captured)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64; anything but a sequence of integers (a bool is
    not one) raises ``ParameterError``."""
    try:
        ids = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise ParameterError(f"{what} must be a sequence of integers") from None
    if ids.size and (ids.ndim != 1 or ids.dtype.kind not in "iu"
                     or not {bool, np.bool_}.isdisjoint(map(type, values))):
        raise ParameterError(f"{what} must be a sequence of integers")
    return ids.astype(np.int64)


def token_ids(tokens, vocab: int, what: str = "token ids") -> np.ndarray:
    """``tokens`` as int64; anything but integers (a bool is not one) in
    ``[0, vocab)`` raises ``ParameterError``."""
    ids = _integers(tokens, what)
    if ids.size and not 0 <= ids.min() <= ids.max() < vocab:
        raise ParameterError(f"{what} must lie in [0, {vocab})")
    return ids


def prefill(spec: ModelSpec, weights: Weights, tokens, cache: KVCache,
            capture_scores: bool = False, last_row_only: bool = False) -> ForwardOutput:
    """Populate an empty cache with the whole input and return its logits.

    Runs in query blocks so long inputs never materialize an n x n
    probability matrix; with ``capture_scores`` only the final token's
    attention row is kept. Logits cover every input row, or with
    ``last_row_only`` the final one only: the last layer then runs
    attention, the MLP and the unembed for that row alone.
    """
    tokens = token_ids(tokens, spec.vocab)
    if cache.archive_len != 0:
        raise StateError("prefill requires an empty cache")
    n = tokens.shape[0]
    if n == 0:
        raise ShapeError("prefill requires at least one token")
    if n > spec.max_pos:
        raise CapacityError(f"input length {n} exceeds max_pos {spec.max_pos}")
    logits = None if last_row_only else np.empty((n, spec.vocab))
    blocks = [(lo, min(lo + PREFILL_BLOCK, n)) for lo in range(0, n, PREFILL_BLOCK)]
    # One score buffer for every block, layer and head, sized for one head's
    # largest part: a block's cached prefix [hi - lo, lo] or the block itself.
    scores = np.empty(max((hi - lo) * max(lo, hi - lo) for lo, hi in blocks))
    for lo, hi in blocks:
        last_block = hi == n
        out = _forward(
            spec, weights, tokens[lo:hi], cache,
            positions=np.arange(lo, hi, dtype=np.int64),
            new_mask=None,
            capture_scores=capture_scores and last_block,
            kv_chunk=None,
            out_rows=int(last_block) if last_row_only else None,
            scores=scores,
        )
        if logits is not None:
            logits[lo:hi] = out.logits
    # ``out`` is the final block's: it holds the captured row, if any.
    if logits is None:
        return out
    return ForwardOutput(logits=logits, last_layer_attn=out.last_layer_attn)


def decode_step(spec: ModelSpec, weights: Weights, new_tokens, cache: KVCache | DraftCache,
                tree_mask: np.ndarray | None = None, positions=None,
                capture_scores: bool = False, kv_chunk: int | None = None,
                append: bool = True,
                tree: list[tuple[np.ndarray, np.ndarray]] | None = None) -> ForwardOutput:
    """Decode a block of new tokens against the cached context.

    Queries attend to every cache entry plus the new tokens allowed by
    ``tree_mask`` (row i, column j visible iff node j is an ancestor-or-self
    of node i); without a mask the block is causal. ``tree`` gives per layer
    the ``(k, v)`` of ``N`` tree rows decoded before, each ``[H, N, dh]``,
    which are not in the cache. A ``[q, T + q]`` mask covers the last
    ``T <= N`` of them: its first ``T`` columns say which of them each query
    sees, and every query sees the ``N - T`` before. The new tokens' K/V
    extend the cache, or without ``append`` (required with ``tree`` or a
    ``DraftCache``) the output carries them. Bad tokens raise ``ParameterError``, as in prefill,
    and so do positions that are not integers.
    """
    new_tokens = token_ids(new_tokens, spec.vocab, "new tokens")
    q_n = new_tokens.shape[0]
    if q_n == 0:
        raise ShapeError("decode_step requires at least one new token")
    if positions is None:
        raise ShapeError("decode_step requires explicit positions")
    positions = _integers(positions, "positions")
    if positions.shape[0] != q_n:
        raise ShapeError(f"{q_n} tokens but {positions.shape[0]} positions")
    if append and isinstance(cache, DraftCache):
        raise ParameterError("a draft cache takes no rows: decode with append=False")
    n_tree = 0
    if tree is not None:
        first = np.shape(tree[0][0]) if len(tree) else ()
        n_tree = first[1] if len(first) == 3 else 0
        want = (spec.n_heads, n_tree, spec.d_head)
        if len(tree) != spec.n_layers or any(
                tuple(map(np.shape, kv)) != (want, want) for kv in tree):
            raise ShapeError(f"tree rows must be {spec.n_layers} (k, v) pairs, each "
                             f"[{spec.n_heads}, N, {spec.d_head}] with one N")
        if append:
            raise ParameterError("a block over tree rows needs append=False")
    if tree_mask is not None:
        tree_mask = np.asarray(tree_mask, dtype=bool)
        if (tree_mask.ndim != 2 or tree_mask.shape[0] != q_n
                or not q_n <= tree_mask.shape[1] <= q_n + n_tree):
            raise ShapeError(f"tree mask shape {tree_mask.shape}, expected ({q_n}, {q_n} + T) "
                             f"for T <= {n_tree} tree rows")
    return _forward(spec, weights, new_tokens, cache, positions, tree_mask,
                    capture_scores, kv_chunk, append=append, tree=tree)


def derive_draft(spec: ModelSpec, weights: Weights, keep_layers: int) -> tuple[ModelSpec, Weights]:
    """Layer-truncated draft sharing embedding, unembedding and final norm."""
    if spec.n_layers < 2:
        raise ParameterError(f"a draft needs a target with at least 2 layers, "
                             f"got {spec.n_layers}")
    if not 1 <= keep_layers < spec.n_layers:
        raise ParameterError(
            f"draft_layers must be in [1, {spec.n_layers - 1}], got {keep_layers}"
        )
    return (replace(spec, n_layers=keep_layers),
            replace(weights, layers=weights.layers[:keep_layers]))


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
    header = json.dumps({"spec": asdict(spec), "tensors": directory},
                        sort_keys=True, separators=(",", ":"))
    try:
        with open(path, "wb") as f:
            f.write(header.encode("utf-8") + b"\n")
            for _, arr in items:
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    except OSError as exc:
        raise ParameterError(f"cannot write weight file {path}: {exc.strerror}") from None


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
                and type(entry.get("offset")) is int  # not a bool
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int for d in entry["shape"])):
            raise ShapeError(f"{path}: malformed tensor entry {entry!r}")
    return ModelSpec(**raw), header["tensors"]


def load_weights(path: str) -> tuple[ModelSpec, Weights]:
    try:
        with open(path, "rb") as f:
            head, payload = f.readline(), f.read()
    except OSError as exc:
        raise ParameterError(f"cannot read weight file {path}: {exc.strerror}") from None
    spec, tensors = _parse_header(path, head)
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
