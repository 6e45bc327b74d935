"""Flat key=value run configuration with CLI overrides.

Unknown keys are errors. Types are coerced from the dataclass field types.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParameterError


@dataclass
class RunConfig:
    seed: int = 0
    # Model source: "copy" builds the constructed copy model; "random" a
    # seeded random model; a file path loads a weight file.
    model: str = "copy"
    weak_match_mass: float = 400.0
    vocab: int = 32
    n_layers: int = 3
    n_heads: int = 2
    d_head: int = 64
    max_pos: int = 32768
    rope_base: float = 10000.0
    draft_layers: int = 2
    # Cache policy for the draft model.
    policy: str = "retrieval"  # full | streaming | retrieval
    sink: int = 0
    recent: int = 992
    streaming_sink: int = 32
    chunk_size: int = 32
    top_k: int = 32
    frequency: int = 4
    # Drafting.
    drafting: str = "chain"  # chain | tree
    k: int = 4
    max_nodes: int = 50
    max_depth: int = 10
    expand_threshold: float = 0.7
    # Run shape.
    temperature: float = 0.0
    gen_tokens: int = 256
    prompt_len: int = 8192
    task: str = "needle"  # needle | doc | cycle
    needle_body: int = 12
    needle_pos: int = -1  # -1 = auto (chunk-aligned mid-document)
    loop_len: int = 15
    hta_chunk: int = 0  # 0 reads the verify prefix as one part; n > 0 in n-row tiles
    out: str = ""  # report directory; empty = no files


def _coerce(name: str, kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {name}={raw!r} as {kind.__name__}") from exc


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    cfg = RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)}
    pairs: list[tuple[str, str]] = []
    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ParameterError(f"cannot read config file {path}: {exc.strerror}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            pairs.append((key.strip(), value.strip()))
    for item in overrides or []:
        if "=" not in item:
            raise ParameterError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    for key, value in pairs:
        if key not in known:
            raise ParameterError(f"unknown config key: {key!r}")
        setattr(cfg, key, _coerce(key, types[key], value))
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
