"""Per-layer tracing of a ``specdesk`` session, done entirely from outside.

``Tracer.installed()`` replaces the public entry point of each layer with a
wrapper that times the call and counts the work it was given, then puts
the originals back. Each name is patched in the module where its caller
looks it up: ``engine``, ``drafting`` and ``verification`` import these
functions by name, so patching only their home module would miss them.

Spans nest (a draft forward contains its attention calls), so the times
are inclusive, not self times.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from specdesk import attn, drafting, engine, verification
from specdesk.cache import KVCache


def _flag(args: tuple, kwargs: dict, index: int, name: str) -> bool:
    """A boolean argument given by keyword or by position."""
    if name in kwargs:
        return bool(kwargs[name])
    return len(args) > index and bool(args[index])


class Tracer:
    """Accumulates seconds and counts per layer over one traced session."""

    def __init__(self, needle_span: tuple[int, int]):
        self.needle_span = needle_span
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.churn: list[float] = []
        self.needle_hits: list[bool] = []
        self._prev_selection: set[int] | None = None

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[key] += time.perf_counter() - t0

    def _prefill(self, orig):
        def prefill(*args, **kwargs):
            # engine.prefill(spec, weights, tokens, cache, capture_scores=...):
            # only the target's prefill captures scores.
            role = "target" if _flag(args, kwargs, 4, "capture_scores") else "draft"
            return self._timed(f"model.prefill.{role}", orig, *args, **kwargs)
        return prefill

    def _draft_forward(self, orig):
        def decode_step(spec, weights, new_tokens, *args, **kwargs):
            self.counts["model.fwd.draft"] += 1
            self.counts["drafting.decoded"] += len(new_tokens)
            return self._timed("model.fwd.draft", orig, spec, weights, new_tokens,
                               *args, **kwargs)
        return decode_step

    def _target_forward(self, orig):
        def decode_step(*args, **kwargs):
            # decode_step(spec, weights, new_tokens, cache, tree_mask, positions,
            # capture_scores, ...): verification's commit pass captures scores.
            role = ("target_commit" if _flag(args, kwargs, 6, "capture_scores")
                    else "target_verify")
            self.counts[f"model.fwd.{role}"] += 1
            return self._timed(f"model.fwd.{role}", orig, *args, **kwargs)
        return decode_step

    def _attention(self, orig, kind: str):
        def attend(q, parts, *args, **kwargs):
            keys = sum(k.shape[-2] for k, _, _ in parts)
            self.counts["attn.score_elems"] += int(np.prod(q.shape[:-1])) * keys
            if kind == "monolithic":
                self.counts["attn.concat_bytes"] += sum(k.nbytes + v.nbytes
                                                        for k, v, _ in parts)
            return self._timed(f"attn.{kind}", orig, q, parts, *args, **kwargs)
        return attend

    def _layer_view(self, orig):
        tracer = self

        def layer_view(self, layer):
            k, v, pos = orig(self, layer)
            if k.flags.owndata:  # a gathered copy, not a slice of the archive
                tracer.counts["cache.view_rows_copied"] += k.shape[0]
            return k, v, pos
        return layer_view

    def _truncate(self, orig):
        tracer = self

        def truncate(self, world_len):
            before = self.archive_len
            orig(self, world_len)
            tracer.counts["cache.rows_rolled_back"] += before - self.archive_len
        return truncate

    def _maybe_update(self, orig):
        def maybe_update(state, s, cache):
            updated = self._timed("retrieval.update", orig, state, s, cache)
            if updated:
                self.counts["retrieval.updates"] += 1
                self.record_selection(state.last_selection, state.chunk_size)
            return updated
        return maybe_update

    def record_selection(self, selection, chunk_size: int) -> None:
        """Note one retrieval update's chosen chunks: churn and needle hit."""
        chosen = {int(c) for c in selection}
        lo, hi = self.needle_span
        needle_chunks = set(range(lo // chunk_size, (hi - 1) // chunk_size + 1))
        self.needle_hits.append(needle_chunks <= chosen)
        if self._prev_selection is not None:
            self.churn.append(len(chosen - self._prev_selection) / len(chosen))
        self._prev_selection = chosen

    def _drafter(self, orig, kept):
        def draft(*args, **kwargs):
            out = self._timed("drafting.draft", orig, *args, **kwargs)
            self.counts["drafting.nodes_kept"] += kept(out)
            return out
        return draft

    def _verifier(self, orig):
        def verify(*args, **kwargs):
            return self._timed("verification.verify", orig, *args, **kwargs)
        return verify

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        patches = [
            (engine, "prefill", self._prefill),
            (drafting, "decode_step", self._draft_forward),
            (verification, "decode_step", self._target_forward),
            (attn, "attend_monolithic", lambda f: self._attention(f, "monolithic")),
            (attn, "attend", lambda f: self._attention(f, "online")),
            (KVCache, "layer_view", self._layer_view),
            (KVCache, "truncate", self._truncate),
            (engine, "maybe_update", self._maybe_update),
            (engine, "draft_chain", lambda f: self._drafter(f, lambda c: len(c.tokens))),
            (engine, "draft_tree", lambda f: self._drafter(f, lambda t: t.size)),
            (engine, "verify_chain", self._verifier),
            (engine, "verify_tree", self._verifier),
        ]
        saved = []
        try:
            for owner, name, wrap in patches:
                orig = getattr(owner, name)
                saved.append((owner, name, orig))
                setattr(owner, name, wrap(orig))
            yield self
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, n_steps: int, accepted: int, drafted: int) -> dict[str, float]:
        """The per-layer metrics of the session traced since the last reset."""
        s, c = self.seconds, self.counts
        return {
            "model.prefill.target_s": s["model.prefill.target"],
            "model.prefill.draft_s": s["model.prefill.draft"],
            "model.fwd.draft_per_step": c["model.fwd.draft"] / n_steps,
            "model.fwd.target_verify_per_step": c["model.fwd.target_verify"] / n_steps,
            "model.fwd.target_commit_per_step": c["model.fwd.target_commit"] / n_steps,
            "model.fwd.draft_ms": s["model.fwd.draft"] * 1e3,
            "model.fwd.target_verify_ms": s["model.fwd.target_verify"] * 1e3,
            "model.fwd.target_commit_ms": s["model.fwd.target_commit"] * 1e3,
            "attn.monolithic_s": s["attn.monolithic"],
            "attn.online_s": s["attn.online"],
            "attn.score_elems": c["attn.score_elems"],
            "attn.concat_mb": c["attn.concat_bytes"] / 1e6,
            "cache.view_rows_copied": c["cache.view_rows_copied"],
            "cache.rows_rolled_back": c["cache.rows_rolled_back"],
            "retrieval.update_ms": s["retrieval.update"] * 1e3,
            "retrieval.updates": c["retrieval.updates"],
            "retrieval.churn": float(np.mean(self.churn)) if self.churn else 0.0,
            "retrieval.needle_hit": (float(np.mean(self.needle_hits))
                                     if self.needle_hits else 0.0),
            "drafting.draft_ms_per_step": s["drafting.draft"] * 1e3 / n_steps,
            "drafting.accept_ratio": accepted / drafted,
            "drafting.decoded_per_node": c["drafting.decoded"] / c["drafting.nodes_kept"],
            "verification.verify_ms_per_step": s["verification.verify"] * 1e3 / n_steps,
        }
