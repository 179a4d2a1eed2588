"""Greedy and ensemble beam-search decoding, batched over sources.

Ensemble decoding averages the next-token probabilities of each model
(arithmetic mean, not log mean) and scores hypotheses by the sum of log
mean-probabilities, without length normalization.  A hypothesis completes
when it emits EOS or reaches the maximum length; the best-scoring complete
hypothesis wins, the first completed one on a tie.

One search serves every caller: the ensemble encodes a batch of sources
once and advances the live hypotheses of all of them in one step per token.
Each source keeps its own beam, takes its top beam-width (hypothesis,
token) candidates by a stable sort, so ties keep (hypothesis, token) order,
and leaves the batch when its beam is empty.  Greedy decoding is the case
of one model and beam width 1.

The M models run as one stacked model (see ModelParams), whose kernels run
over a leading member axis: one set of numpy calls per step for all of
them, each member's products the BLAS calls it makes alone, to the bit.
Each encoder direction steps the M chains as one, not both directions' 2M:
M recurrent blocks stay in cache, and one chain of 2M was slower.  Each
batch runs its members in chunks, one plan for the encoder and every
decoder step (see MAX_STEP_ELEMENTS).
"""

from __future__ import annotations

import numpy as np

from ..corpus import EOS_ID, START_ID
from .model import Array, ModelParams, decoder_step_batch, encode_sources

# Bound on B*K*S*H, the size of one model's attention activations in one
# decoder step (4 MB in float64).  It sets how many sources a batch holds,
# and once per batch how many members run at once, in the encoder and every
# step: max(1, MAX_STEP_ELEMENTS // (B*K*S*H)) with K the full beam width,
# which no later step exceeds.  One source (generate) runs all four members
# at once, and a large batch (evaluate) one at a time, so peak memory stays
# that of one member's.
MAX_STEP_ELEMENTS = 1 << 19


def greedy_decode(params: ModelParams, source_ids: list[int], max_len: int) -> list[int]:
    """Argmax decoding with a single model; EOS is not included."""
    return beam_search([params], [source_ids], 1, max_len)[0]


def ensemble_decode(
    checkpoints: ModelParams | list, source_ids: list[int], beam_width: int, max_len: int,
    start_id: int = START_ID, eos_id: int = EOS_ID,
) -> list[int]:
    """Beam search for one source; see beam_search."""
    return beam_search(checkpoints, [source_ids], beam_width, max_len, start_id, eos_id)[0]


def beam_search(
    checkpoints: ModelParams | list, sources: list[list[int]], beam_width: int, max_len: int,
    start_id: int = START_ID, eos_id: int = EOS_ID,
) -> list[list[int]]:
    """Beam search over the mean of per-model next-token distributions.

    checkpoints is a stacked ModelParams, or Checkpoint objects or bare
    ModelParams to stack (one is a view).  Returns, in input order, the
    token ids of each source's best complete hypothesis (EOS excluded).
    Sources are decoded in batches of similar length, sized by
    MAX_STEP_ELEMENTS.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    model = checkpoints if isinstance(checkpoints, ModelParams) else _stack(checkpoints)
    order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    longest = max((len(s) for s in sources), default=1)
    size = _at_once(beam_width * longest * model.hidden_dim)  # sources to a batch
    results: list[list[int]] = [[] for _ in sources]
    for lo in range(0, len(order), size):
        batch = order[lo : lo + size]
        found = _search(model, [sources[i] for i in batch], beam_width, max_len, start_id, eos_id)
        for i, tokens in zip(batch, found):
            results[i] = tokens
    return results


def _stack(checkpoints: list) -> ModelParams:
    if not checkpoints:
        raise ValueError("ensemble requires at least one checkpoint")
    models = [getattr(c, "params", c) for c in checkpoints]
    if len({m.dims for m in models}) > 1:
        raise ValueError("ensemble members must share vocabulary sizes and dimensions")
    flats = [m.flat for m in models]
    return models[0].like(flats[0][None] if len(flats) == 1 else np.stack(flats))


def _pad_rows(rows: list[list], fill) -> Array:
    width = max(map(len, rows))
    return np.array([row + [fill] * (width - len(row)) for row in rows])


def _at_once(elements: int) -> int:
    """How many units (sources, members) of elements each fit MAX_STEP_ELEMENTS; at least 1."""
    return max(1, MAX_STEP_ELEMENTS // max(1, elements))


def _search(
    model: ModelParams, sources: list[list[int]], beam_width: int, max_len: int,
    start_id: int, eos_id: int,
) -> list[list[int]]:
    """Beam search for one batch of sources with a stacked ensemble.

    Row b of the batch holds source live[b]: its beam hyps[b] (token tuples)
    and, padded to the widest beam K, their scores (B, K), last tokens
    (B, K) and the members' states (M, B, K, H).  Padding slots score -inf
    and come after the real ones, so a stable sort never ranks them first.
    """
    width = beam_width * max(map(len, sources)) * model.hidden_dim
    chunk = _at_once(len(sources) * width)  # members at once, in the encoder and every step
    spans = [slice(lo, lo + chunk) for lo in range(0, len(model.flat), chunk)]
    members = [model.like(model.flat[span]) for span in spans]
    annotations, proj, mask, s0 = encode_sources(model, members, sources)
    states = s0[:, :, None]
    live = np.arange(len(sources))
    hyps: list[list[tuple[int, ...]]] = [[()] for _ in sources]
    scores = np.zeros((len(sources), 1))
    prev = np.full((len(sources), 1), start_id)
    completed: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in sources]

    for _ in range(max_len):
        stepped = [decoder_step_batch(p, states[span], prev, annotations[:, span], proj[:, span],
                                      mask) for p, span in zip(members, spans)]
        new_states, probs = stepped[0] if len(stepped) == 1 else map(np.concatenate, zip(*stepped))
        mean = np.mean(probs, axis=0)                       # (B, K, V)
        vocab = mean.shape[2]
        with np.errstate(divide="ignore"):
            candidates = (scores[:, :, None] + np.log(mean)).reshape(len(hyps), -1)
        ranked = np.argsort(-candidates, axis=1, kind="stable")
        rows, beams = [], []
        for b, beam in enumerate(hyps):
            kept = []  # (parent, token, score, tokens) of each surviving candidate
            for flat in ranked[b, : min(beam_width, len(beam) * vocab)]:
                k, token = divmod(int(flat), vocab)
                score = float(candidates[b, flat])
                if token == eos_id:
                    completed[live[b]].append((score, beam[k]))
                else:
                    kept.append((k, token, score, beam[k] + (token,)))
            if kept:
                rows.append(b)
                beams.append(kept)
        if not rows:
            hyps = []
            break
        parent = _pad_rows([[c[0] for c in kept] for kept in beams], 0)
        states = new_states[:, np.array(rows)[:, None], parent]
        prev = _pad_rows([[c[1] for c in kept] for kept in beams], start_id)
        scores = _pad_rows([[c[2] for c in kept] for kept in beams], -np.inf)
        hyps = [[c[3] for c in kept] for kept in beams]
        if len(rows) < len(live):
            annotations, proj, mask = annotations[rows], proj[rows], mask[rows]
            live = live[rows]

    for b, beam in enumerate(hyps):  # length-capped
        completed[live[b]].extend(zip(scores[b].tolist(), beam))
    # max returns the first maximal item
    return [list(max(found, key=lambda item: item[0])[1]) for found in completed]
