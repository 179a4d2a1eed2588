"""Attentional recurrent encoder-decoder, implemented directly on numpy.

The encoder is a bidirectional GRU over source embeddings; each position's
annotation is the concatenation of the forward and backward states.  The
decoder is a GRU whose input at each step is the previous target embedding
concatenated with an attention context vector (an additive-attention
weighted sum of the annotations).  The output distribution is a softmax
over an affine map of (decoder state, previous embedding, context).

Everything is float64, with hand-derived backward passes; correctness is
pinned by finite-difference checks in the test suite.  Shapes use B for
batch, S for padded source length, T for padded target length, E for the
embedding size, and H for the hidden size (annotations are 2H wide).

Weight matrices are stored (input_dim, output_dim), applied as x @ W.
Row vectors everywhere.  Each GRU keeps its gates fused, as column blocks
z|r|h of one input matrix, one recurrent matrix and one bias.

Every product that does not depend on the recurrence runs once per batch,
outside the time loops: the GRU input projections, the attention
projection of the annotations (annotations @ att_u, as in Bahdanau et al.,
arXiv 1409.0473), the output layer with its softmax, and every weight
gradient.  Inside the loops sequences are time-major, (S or T, B, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from ..corpus import PAD_ID, START_ID, FilterConfig

Array = np.ndarray

INIT_SCALE = 0.08  # parameters start uniform in [-INIT_SCALE, INIT_SCALE]


@dataclass
class Hyperparams(FilterConfig):
    """Model and training configuration; the filter limits are the
    inherited FilterConfig fields.

    Desk-scale defaults; the configuration the setup was derived from used
    embed 512 / hidden 1024 / minibatch 80 and remains reachable here.
    """

    embed_dim: int = 64
    hidden_dim: int = 128
    minibatch_size: int = 16
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    validate_every: int = 200
    checkpoint_every: int = 500
    max_epochs: int = 100
    max_minibatches: int = 50_000
    patience: int = 10
    ensemble_size: int = 4
    beam_width: int = 5
    seed: int = 1234

    def validate(self) -> None:
        for name in ("max_source_len", "max_target_len", "max_diff_bytes", "embed_dim",
                     "hidden_dim", "minibatch_size", "validate_every", "checkpoint_every",
                     "max_epochs", "max_minibatches", "ensemble_size", "beam_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.adadelta_rho < 1.0:
            raise ValueError(f"adadelta_rho must be in (0, 1), got {self.adadelta_rho}")
        if not 0.0 < self.adadelta_eps < math.inf:
            raise ValueError(f"adadelta_eps must be positive and finite, got {self.adadelta_eps}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


@dataclass
class GruParams:
    """One gated recurrent cell: update gate z, reset gate r, candidate h~.

    The gates are fused: w (input, 3H), u (H, 3H) and b (3H,) hold them as
    column blocks z|r|h."""

    w: Array
    u: Array
    b: Array

    def tensors(self) -> Iterator[tuple[str, Array]]:
        for f in fields(self):
            yield f.name, getattr(self, f.name)


GRU_NAMES = ("enc_fwd", "enc_bwd", "dec")


@dataclass
class ModelParams:
    """Every trainable tensor of the encoder-decoder, each a view into one
    float64 buffer, flat, in param_shapes order.  Gradients use the same
    class; params[name] and iter(params) read it as tensors() does."""

    flat: Array             # (N,), every tensor below is a view into it
    src_emb: Array          # (V_src, E)
    tgt_emb: Array          # (V_tgt, E)
    enc_fwd: GruParams      # input E -> H
    enc_bwd: GruParams      # input E -> H
    dec: GruParams          # input E + 2H -> H
    att_w: Array            # (H, H), over the previous decoder state
    att_u: Array            # (2H, H), over annotations
    att_v: Array            # (H,)
    out_w: Array            # (H + E + 2H, V_tgt)
    out_b: Array            # (V_tgt,)
    init_w: Array           # (H, H), backward state -> initial decoder state
    init_b: Array           # (H,)

    @property
    def embed_dim(self) -> int:
        return self.src_emb.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.att_w.shape[0]

    @property
    def src_vocab_size(self) -> int:
        return self.src_emb.shape[0]

    @property
    def tgt_vocab_size(self) -> int:
        return self.tgt_emb.shape[0]

    def tensors(self) -> dict[str, Array]:
        """Named views of every tensor, in layout order (see param_shapes)."""
        out: dict[str, Array] = {}
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if isinstance(value, GruParams):
                out.update((f"{f.name}.{part}", tensor) for part, tensor in value.tensors())
            else:
                out[f.name] = value
        return out

    def __getitem__(self, name: str) -> Array:
        return self.tensors()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.tensors())

    @classmethod
    def from_flat(cls, flat: Array, embed_dim: int, hidden_dim: int, src_vocab_size: int,
                  tgt_vocab_size: int) -> "ModelParams":
        """Named views into flat (N,), in param_shapes order; no copy."""
        shapes = param_shapes(embed_dim, hidden_dim, src_vocab_size, tgt_vocab_size)
        chunks = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1])
        views = {name: chunk.reshape(shape) for (name, shape), chunk in zip(shapes.items(), chunks)}
        grus = {n: GruParams(*(views.pop(f"{n}.{part}") for part in "wub")) for n in GRU_NAMES}
        return cls(flat, **grus, **views)

    def like(self, flat: Array) -> "ModelParams":
        """This layout over another buffer, such as a gradient or an accumulator."""
        return ModelParams.from_flat(
            flat, self.embed_dim, self.hidden_dim, self.src_vocab_size, self.tgt_vocab_size
        )

    def copy(self) -> "ModelParams":
        return self.like(self.flat.copy())

    def assert_finite(self) -> None:
        if not np.isfinite(self.flat).all():
            name = next(n for n, t in self.tensors().items() if not np.isfinite(t).all())
            raise FloatingPointError(f"non-finite values in parameter {name}")


def param_shapes(
    embed_dim: int, hidden_dim: int, src_vocab_size: int, tgt_vocab_size: int
) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor, named and in layout order, as ModelParams.tensors()."""
    e, h = embed_dim, hidden_dim
    shapes = {"src_emb": (src_vocab_size, e), "tgt_emb": (tgt_vocab_size, e)}
    for prefix, input_dim in zip(GRU_NAMES, (e, e, e + 2 * h)):
        shapes.update({f"{prefix}.w": (input_dim, 3 * h), f"{prefix}.u": (h, 3 * h),
                       f"{prefix}.b": (3 * h,)})
    shapes.update(
        att_w=(h, h), att_u=(2 * h, h), att_v=(h,),
        out_w=(h + e + 2 * h, tgt_vocab_size), out_b=(tgt_vocab_size,),
        init_w=(h, h), init_b=(h,),
    )
    return shapes


def init_params(hyper: Hyperparams, src_vocab_size: int, tgt_vocab_size: int) -> ModelParams:
    """Seeded uniform initialization of all parameters.

    Tensors are drawn in layout order and each fused GRU tensor one gate
    block at a time, so every gate gets the values a separate (input, H)
    tensor per gate would get from the same seed.
    """
    hyper.validate()
    if src_vocab_size < 1 or tgt_vocab_size < 1:
        raise ValueError("vocabulary sizes must be >= 1")
    rng = np.random.default_rng(hyper.seed)
    dims = (hyper.embed_dim, hyper.hidden_dim, src_vocab_size, tgt_vocab_size)
    size = sum(math.prod(shape) for shape in param_shapes(*dims).values())
    params = ModelParams.from_flat(np.empty(size), *dims)
    for name, tensor in params.tensors().items():
        blocks = 3 if name.partition(".")[0] in GRU_NAMES else 1
        for block in np.split(tensor, blocks, axis=-1):
            block[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=block.shape)
    return params


def _sigmoid(x: Array) -> Array:
    # The tanh form cannot overflow for any finite x.
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _gru_step(p: GruParams, h_prev: Array, xw: Array) -> tuple[Array, tuple]:
    """One GRU step, h = (1 - z) * h_prev + z * h~, from xw = x @ w + b (B, 3H)."""
    n = h_prev.shape[1]
    zr = _sigmoid(xw[:, : 2 * n] + h_prev @ p.u[:, : 2 * n])
    z, r = zr[:, :n], zr[:, n:]
    rh = r * h_prev
    h_cand = np.tanh(xw[:, 2 * n :] + rh @ p.u[:, 2 * n :])
    return h_prev + z * (h_cand - h_prev), (h_prev, z, r, rh, h_cand)


def _gru_step_backward(p: GruParams, cache: tuple, dh: Array, d_xw: Array) -> Array:
    """Backprop one GRU step: writes d(xw) (B, 3H) into d_xw, returns dh_prev."""
    h_prev, z, r, rh, h_cand = cache
    n = h_prev.shape[1]
    da_h = dh * z * (1.0 - h_cand * h_cand)                      # through tanh
    drh = da_h @ p.u[:, 2 * n :].T
    d_xw[:, :n] = dh * (h_cand - h_prev) * z * (1.0 - z)         # through sigmoid
    d_xw[:, n : 2 * n] = drh * h_prev * r * (1.0 - r)
    d_xw[:, 2 * n :] = da_h
    return dh * (1.0 - z) + drh * r + d_xw[:, : 2 * n] @ p.u[:, : 2 * n].T


def _gru_weight_grads(grads: GruParams, xs: Array, caches: list, d_xw: Array) -> None:
    """Add a chain's w, u and b grads, one GEMM each, from its inputs xs
    (T, B, input), per-step caches and input-projection grads d_xw (T, B, 3H)."""
    n = d_xw.shape[2] // 3
    rows = d_xw.reshape(-1, 3 * n)
    h_prev = np.concatenate([cache[0] for cache in caches])
    rh = np.concatenate([cache[3] for cache in caches])
    grads.w += xs.reshape(-1, xs.shape[2]).T @ rows
    grads.u[:, : 2 * n] += h_prev.T @ rows[:, : 2 * n]
    grads.u[:, 2 * n :] += rh.T @ rows[:, 2 * n :]
    grads.b += rows.sum(axis=0)


def _gru_chain(p: GruParams, xw: Array, reverse: bool, caches: list | None = None) -> Array:
    """Run one GRU over input projections xw (S, B, 3H); returns states (S, B, H).
    Stores step i's backward cache in caches[i] if given a list of S slots."""
    steps, batch = xw.shape[:2]
    h = np.zeros((batch, p.u.shape[0]))
    states = np.empty((steps, batch, h.shape[1]))
    for i in reversed(range(steps)) if reverse else range(steps):
        h, step_cache = _gru_step(p, h, xw[i])
        if caches is not None:
            caches[i] = step_cache
        states[i] = h
    return states


def _gru_chain_backward(p: GruParams, caches: list, d_states: Array, reverse: bool) -> Array:
    """Backprop a _gru_chain from d_states (S, B, H); returns d(xw) (S, B, 3H)."""
    steps, batch, n = d_states.shape
    d_xw = np.empty((steps, batch, 3 * n))
    dh = np.zeros((batch, n))
    for i in range(steps) if reverse else reversed(range(steps)):
        dh = _gru_step_backward(p, caches[i], d_states[i] + dh, d_xw[i])
    return d_xw


def _scatter_rows(grad: Array, ids: Array, rows: Array) -> None:
    """grad[ids[k]] += rows[k] for every k, as a sorted segment sum."""
    ids = ids.reshape(-1)
    order = np.argsort(ids, kind="stable")
    unique, starts = np.unique(ids[order], return_index=True)
    grad[unique] += np.add.reduceat(rows.reshape(len(ids), -1)[order], starts, axis=0)


def encode_batch(
    params: ModelParams, src_ids: Array, src_mask: Array, cache: dict | None = None
) -> Array:
    """Bidirectional encoding of a padded batch; returns the annotations (B, S, 2H).

    Padded positions pass the recurrent state through unchanged, so extra
    padding never alters the states at real positions: their update-gate
    pre-activation is -inf, which makes z exactly 0 there and the gradients
    through them exact pass-throughs.  Fills cache, when given, with what
    the backward pass needs; inference passes none and keeps no step caches.
    """
    xs = params.src_emb[src_ids.T]                         # (S, B, E), time-major
    padded = src_mask.T[:, :, None] == 0.0
    if cache is not None:
        cache.update(src_ids=src_ids, xs=xs)
    states = []
    for prefix in ("enc_fwd", "enc_bwd"):
        p = getattr(params, prefix)
        xw = xs @ p.w + p.b
        np.copyto(xw[:, :, : params.hidden_dim], -np.inf, where=padded)
        caches = None if cache is None else cache.setdefault(prefix, [None] * len(xs))
        states.append(_gru_chain(p, xw, prefix == "enc_bwd", caches))
    return np.ascontiguousarray(np.concatenate(states, axis=2).transpose(1, 0, 2))


def encoder_backward(
    params: ModelParams, cache: dict, d_annotations: Array, grads: ModelParams
) -> None:
    """Backprop through both encoder chains into cell and embedding grads."""
    h = params.hidden_dim
    xs = cache["xs"]
    d_states = d_annotations.transpose(1, 0, 2)            # (S, B, 2H)
    d_xs = np.zeros_like(xs)
    for prefix, d_chain in (("enc_fwd", d_states[:, :, :h]), ("enc_bwd", d_states[:, :, h:])):
        p = getattr(params, prefix)
        d_xw = _gru_chain_backward(p, cache[prefix], d_chain, prefix == "enc_bwd")
        _gru_weight_grads(getattr(grads, prefix), xs, cache[prefix], d_xw)
        d_xs += d_xw @ p.w.T
    _scatter_rows(grads.src_emb, cache["src_ids"].T, d_xs)


def attend_batch(
    params: ModelParams, s_prev: Array, annotations: Array, proj: Array, src_mask: Array
) -> tuple[Array, Array, tuple]:
    """Additive attention: scores v . tanh(W s_prev + U annotation).

    proj is the projected context annotations @ att_u (B, S, H), which does
    not depend on the decoder state and so is computed once per batch.
    Padded source positions get zero weight.  Returns the context vectors
    (B, 2H), the weights (B, S), and the backward cache.  For K hypotheses
    per source, s_prev is (B, K, H) and annotations, proj and src_mask carry
    a broadcast axis, (B, 1, S, ...); the results then are (B, K, ...).
    """
    m = (s_prev @ params.att_w)[..., None, :] + proj
    np.tanh(m, out=m)                                          # (B, S, H)
    scores = m @ params.att_v                                  # (B, S)
    masked = np.where(src_mask > 0.0, scores, -np.inf)
    masked = masked - masked.max(axis=-1, keepdims=True)
    weights = np.exp(masked)
    weights = weights / weights.sum(axis=-1, keepdims=True)    # zeros stay zero
    context = (weights[..., None, :] @ annotations)[..., 0, :]
    return context, weights, (s_prev, m, weights)


def attend_backward(
    params: ModelParams,
    cache: tuple,
    d_context: Array,
    annotations: Array,
    d_pre_sum: Array,
    grads: ModelParams,
) -> Array:
    """Backprop attention through the scores; returns ds_prev.

    Adds the gradient of the pre-activation W s_prev + U annotation to
    d_pre_sum (B, S, H).  The caller takes the att_u and annotation grads
    from that sum, and the context -> annotations path, once per batch.
    """
    s_prev, m, weights = cache
    d_weights = (annotations @ d_context[:, :, None])[:, :, 0]
    # softmax backward; masked positions have weight 0 and so gradient 0
    dot = (weights * d_weights).sum(axis=1, keepdims=True)
    d_scores = weights * (d_weights - dot)
    grads.att_v += (d_scores[:, None, :] @ m).sum(axis=0)[0]
    d_pre = d_scores[:, :, None] * params.att_v * (1.0 - m * m)
    d_pre_sum += d_pre
    d_query = d_pre.sum(axis=1)
    grads.att_w += s_prev.T @ d_query
    return d_query @ params.att_w.T


def init_decoder_state_batch(params: ModelParams, annotations: Array) -> tuple[Array, tuple]:
    """s_0 = tanh(W_init . first backward state + b_init)."""
    h = params.hidden_dim
    hb_first = annotations[:, 0, h:]
    s0 = np.tanh(hb_first @ params.init_w + params.init_b)
    return s0, (hb_first, s0)


def _softmax_rows(logits: Array) -> tuple[Array, Array]:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    return np.exp(log_probs), log_probs


def loss_forward(
    params: ModelParams,
    src_ids: Array,
    src_mask: Array,
    tgt_ids: Array,
    tgt_mask: Array,
    start_id: int = START_ID,
) -> tuple[float, dict]:
    """Teacher-forced forward pass; mean per-sequence NLL over the batch.

    Under teacher forcing the decoder states never depend on the softmax,
    so the output layer runs once over all T steps after the recurrence.
    """
    batch, tgt_len = tgt_ids.shape
    e, h, dec = params.embed_dim, params.hidden_dim, params.dec

    enc_cache: dict = {}
    annotations = encode_batch(params, src_ids, src_mask, enc_cache)
    proj = annotations @ params.att_u                              # (B, S, H)
    s, init_cache = init_decoder_state_batch(params, annotations)

    prev_ids = np.concatenate(
        [np.full((batch, 1), start_id, dtype=tgt_ids.dtype), tgt_ids[:, :-1]], axis=1
    )
    ey = params.tgt_emb[prev_ids.T]                                # (T, B, E), time-major
    ey_w = ey @ dec.w[:e] + dec.b
    states = np.empty((tgt_len, batch, h))
    contexts = np.empty((tgt_len, batch, 2 * h))
    att_caches, gru_caches = [], []
    for t in range(tgt_len):
        contexts[t], _, att_cache = attend_batch(params, s, annotations, proj, src_mask)
        s, gru_cache = _gru_step(dec, s, ey_w[t] + contexts[t] @ dec.w[e:])
        states[t] = s
        att_caches.append(att_cache)
        gru_caches.append(gru_cache)

    readout = np.concatenate([states, ey, contexts], axis=2)       # (T, B, H+E+2H)
    probs, log_probs = _softmax_rows(readout @ params.out_w + params.out_b)
    gold = np.take_along_axis(log_probs, tgt_ids.T[:, :, None], axis=2)[:, :, 0]
    loss = -(gold * tgt_mask.T).sum() / batch
    cache = dict(
        annotations=annotations, enc_cache=enc_cache, init_cache=init_cache, prev_ids=prev_ids,
        tgt_ids=tgt_ids, tgt_mask=tgt_mask, readout=readout, probs=probs,
        att_caches=att_caches, gru_caches=gru_caches,
    )
    return loss, cache


def loss_backward(params: ModelParams, cache: dict) -> ModelParams:
    """Gradients of the mean per-sequence loss for every parameter.

    The output layer's gradients come first, one GEMM each for all steps;
    the loop over steps carries only the decoder state; the GRU, att_u and
    annotation gradients then take one GEMM each.
    """
    grads = params.like(np.zeros_like(params.flat))
    annotations, readout = cache["annotations"], cache["readout"]
    tgt_ids, tgt_mask = cache["tgt_ids"], cache["tgt_mask"]
    e, h, dec = params.embed_dim, params.hidden_dim, params.dec
    batch, tgt_len = tgt_ids.shape

    d_logits = cache["probs"].copy()                               # (T, B, V)
    d_logits[np.arange(tgt_len)[:, None], np.arange(batch), tgt_ids.T] -= 1.0
    d_logits *= tgt_mask.T[:, :, None] / batch
    grads.out_w += readout.reshape(-1, readout.shape[2]).T @ d_logits.reshape(
        -1, d_logits.shape[2]
    )
    grads.out_b += d_logits.sum(axis=(0, 1))
    d_readout = d_logits @ params.out_w.T                          # (T, B, H+E+2H)

    d_xw = np.empty((tgt_len, batch, 3 * h))
    d_contexts = np.empty((tgt_len, batch, 2 * h))
    d_pre_sum = np.zeros(annotations.shape[:2] + (h,))
    ds = np.zeros((batch, h))
    for t in reversed(range(tgt_len)):
        ds = _gru_step_backward(dec, cache["gru_caches"][t], ds + d_readout[t, :, :h], d_xw[t])
        d_contexts[t] = d_readout[t, :, h + e :] + d_xw[t] @ dec.w[e:].T
        ds = ds + attend_backward(
            params, cache["att_caches"][t], d_contexts[t], annotations, d_pre_sum, grads
        )

    _gru_weight_grads(grads.dec, readout[:, :, h:], cache["gru_caches"], d_xw)
    d_ey = d_readout[:, :, h : h + e] + d_xw @ dec.w[:e].T
    _scatter_rows(grads.tgt_emb, cache["prev_ids"].T, d_ey)

    grads.att_u += annotations.reshape(-1, 2 * h).T @ d_pre_sum.reshape(-1, h)
    weights = np.stack([att_cache[2] for att_cache in cache["att_caches"]], axis=2)  # (B, S, T)
    d_annotations = d_pre_sum @ params.att_u.T + weights @ d_contexts.transpose(1, 0, 2)

    # decoder initialization
    hb_first, s0 = cache["init_cache"]
    da = ds * (1.0 - s0 * s0)
    grads.init_w += hb_first.T @ da
    grads.init_b += da.sum(axis=0)
    d_annotations[:, 0, h:] += da @ params.init_w.T

    encoder_backward(params, cache["enc_cache"], d_annotations, grads)
    return grads


def _pad_sequences(seqs: list[list[int]], what: str) -> tuple[Array, Array]:
    """Pad non-empty id sequences to a rectangular array with a 0/1 mask."""
    if min(map(len, seqs)) == 0:
        raise ValueError(f"{what} sequence must be non-empty")
    ids = np.full((len(seqs), max(map(len, seqs))), PAD_ID, dtype=np.int64)
    mask = np.zeros(ids.shape)
    for b, seq in enumerate(seqs):
        ids[b, : len(seq)] = seq
        mask[b, : len(seq)] = 1.0
    return ids, mask


def pad_batch(sources: list[list[int]], targets: list[list[int]]) -> tuple[Array, ...]:
    """Pad sources and targets to rectangular arrays with 0/1 masks; every
    sequence must be non-empty."""
    if not sources or len(sources) != len(targets):
        raise ValueError("batch must contain the same positive number of sources and targets")
    return (*_pad_sequences(sources, "source"), *_pad_sequences(targets, "target"))


def _check_ids(ids: list[int], vocab_size: int, what: str) -> None:
    for i in ids:
        if not 0 <= i < vocab_size:
            raise ValueError(f"{what} id {i} out of range [0, {vocab_size})")


# ---------------------------------------------------------------------------
# Inference: encode a batch of sources once, then step K hypotheses of each.

def encode_sources(params: ModelParams, sources: list[list[int]]) -> tuple[Array, ...]:
    """Encode id sequences (EOS appended), padded to the longest, keeping no
    backward caches: returns the annotations (B, S, 2H), their projection
    annotations @ att_u (B, S, H), the mask (B, S) and the states s_0 (B, H)."""
    for ids in sources:
        _check_ids(ids, params.src_vocab_size, "source")
    src_ids, src_mask = _pad_sequences(sources, "source")
    annotations = encode_batch(params, src_ids, src_mask)
    s0, _ = init_decoder_state_batch(params, annotations)
    return annotations, annotations @ params.att_u, src_mask, s0


def decoder_step_batch(
    params: ModelParams,
    s_prev: Array,
    prev_ids: Array,
    annotations: Array,
    proj: Array,
    src_mask: Array,
) -> tuple[Array, Array]:
    """One decoder step for K hypotheses of each of B sources: from their
    states (B, K, H), last tokens (B, K) and encoded sources (see
    encode_sources), the next states (B, K, H) and distributions (B, K, V)."""
    batch, width, h = s_prev.shape
    rows = batch * width
    ey = params.tgt_emb[prev_ids]                                  # (B, K, E)
    context, _, _ = attend_batch(
        params, s_prev, annotations[:, None], proj[:, None], src_mask[:, None]
    )
    gru_in = np.concatenate([ey, context], axis=2).reshape(rows, -1)
    s_new, _ = _gru_step(params.dec, s_prev.reshape(rows, h), gru_in @ params.dec.w + params.dec.b)
    readout = np.concatenate([s_new, gru_in], axis=1)              # (rows, H+E+2H)
    probs, _ = _softmax_rows(readout @ params.out_w + params.out_b)
    return s_new.reshape(batch, width, h), probs.reshape(batch, width, -1)


# ---------------------------------------------------------------------------
# Single-sequence views over the batched kernels, for tests.

def encode(source_ids: list[int], params: ModelParams) -> Array:
    """Annotations (S, 2H) for one source sequence (EOS already appended)."""
    return encode_sources(params, [source_ids])[0][0]


def init_decoder_state(annotations: Array, params: ModelParams) -> Array:
    s0, _ = init_decoder_state_batch(params, annotations[None, :, :])
    return s0[0]


def decoder_step(
    prev_state: Array, prev_target_id: int, annotations: Array, params: ModelParams
) -> tuple[Array, Array]:
    """One decoder step: next state and the distribution over target ids."""
    _check_ids([prev_target_id], params.tgt_vocab_size, "target")
    ann, mask = annotations[None, :, :], np.ones((1, annotations.shape[0]))
    s_new, probs = decoder_step_batch(
        params, prev_state[None, None], np.array([[prev_target_id]]), ann, ann @ params.att_u, mask
    )
    return s_new[0, 0], probs[0, 0]


def _batch_forward(
    batch: list[tuple[list[int], list[int]]], params: ModelParams, start_id: int
) -> tuple[float, dict]:
    padded = pad_batch([s for s, _ in batch], [t for _, t in batch])
    return loss_forward(params, *padded, start_id=start_id)


def batch_loss(
    batch: list[tuple[list[int], list[int]]], params: ModelParams, start_id: int = START_ID
) -> float:
    """Mean per-sequence loss of a batch (the quantity gradients derive)."""
    return _batch_forward(batch, params, start_id)[0]


def gradients(
    batch: list[tuple[list[int], list[int]]], params: ModelParams, start_id: int = START_ID
) -> ModelParams:
    """Exact gradients of the mean per-sequence loss over a padded batch."""
    return loss_backward(params, _batch_forward(batch, params, start_id)[1])
