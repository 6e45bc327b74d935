"""Desk-scale speculative decoding with a retrieval-guided draft KV cache."""

from .cache import FullPolicy, KVCache, RetrievalPolicy, StreamingPolicy
from .drafting import DraftTree, TreeBudget, draft_chain, draft_tree
from .engine import Session, greedy_reference
from .model import (ForwardOutput, ModelSpec, Weights, decode_step, derive_draft,
                    load_weights, prefill, save_weights)
from .retrieval import (RetrievalState, chunk_scores, extract_scores, maybe_update,
                        select_top_k)
from .speedup import SpeedupInputs, SpeedupResult, speedup_model
from .tensor import Rng, sample_categorical
from .verification import VerifyOutcome, hybrid_attention, verify_chain, verify_tree

__version__ = "0.1.0"
