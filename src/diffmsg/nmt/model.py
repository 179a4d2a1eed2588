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
gradient but two: attend_backward adds to the att_w and att_v gradients
once per decoder step.  Inside the loops sequences are time-major,
(S or T, B, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Annotated, Iterator, NamedTuple

import numpy as np

from ..corpus import PAD_ID, START_ID, FilterConfig, TokenSequence, Vocabulary

Array = np.ndarray

INIT_SCALE = 0.08  # parameters start uniform in [-INIT_SCALE, INIT_SCALE]


@dataclass(frozen=True)
class Hyperparams(FilterConfig):
    """Model and training configuration; the filter limits are the
    inherited FilterConfig fields.

    Desk-scale defaults; the configuration the setup was derived from used
    embed 512 / hidden 1024 / minibatch 80 and remains reachable here.
    """

    embed_dim: Annotated[int, ">= 1"] = 64
    hidden_dim: Annotated[int, ">= 1"] = 128
    minibatch_size: Annotated[int, ">= 1"] = 16
    adadelta_rho: Annotated[float, "> 0", "< 1"] = 0.95
    adadelta_eps: Annotated[float, "> 0"] = 1e-6
    validate_every: Annotated[int, ">= 1"] = 200
    checkpoint_every: Annotated[int, ">= 1"] = 500
    max_epochs: Annotated[int, ">= 1"] = 100
    max_minibatches: Annotated[int, ">= 1"] = 50_000
    patience: Annotated[int, ">= 0"] = 10
    ensemble_size: Annotated[int, ">= 1"] = 4
    beam_width: Annotated[int, ">= 1"] = 5
    seed: Annotated[int, ">= 0"] = 1234


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
    class; params[name] and iter(params) read it as tensors() does.  A
    stacked ensemble of M models is one over an (M, N) buffer, a member a
    row: each tensor is then (M, *shape)."""

    flat: Array             # (N,) or (M, N), every tensor below is a view into it
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
        return self.src_emb.shape[-1]

    @property
    def hidden_dim(self) -> int:
        return self.att_w.shape[-1]

    @property
    def src_vocab_size(self) -> int:
        return self.src_emb.shape[-2]

    @property
    def tgt_vocab_size(self) -> int:
        return self.tgt_emb.shape[-2]

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
        """Named views into flat (N,) or (M, N), in param_shapes order; no copy."""
        shapes = param_shapes(embed_dim, hidden_dim, src_vocab_size, tgt_vocab_size)
        chunks = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1],
                          axis=-1)
        views = {name: chunk.reshape(flat.shape[:-1] + shape)
                 for (name, shape), chunk in zip(shapes.items(), chunks)}
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


def param_count(*dims: int) -> int:
    """N, the length of ModelParams.flat, for param_shapes' dims."""
    return sum(math.prod(shape) for shape in param_shapes(*dims).values())


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
    if src_vocab_size < 1 or tgt_vocab_size < 1:
        raise ValueError("vocabulary sizes must be >= 1")
    rng = np.random.default_rng(hyper.seed)
    dims = (hyper.embed_dim, hyper.hidden_dim, src_vocab_size, tgt_vocab_size)
    params = ModelParams.from_flat(np.empty(param_count(*dims)), *dims)
    for name, tensor in params.tensors().items():
        blocks = 3 if name.partition(".")[0] in GRU_NAMES else 1
        for block in np.split(tensor, blocks, axis=-1):
            block[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=block.shape)
    return params


class _Chain(NamedTuple):
    """The time-major buffers of one GRU chain over S steps, allocated once;
    each step writes its row of each, and the backward pass reads them.
    States are in position order: row 0 of h, or row S for a reversed
    chain, is the state it starts from (0 for the encoder, s_0 for the
    decoder).  A stacked ensemble's M chains are one, its rows (M, B, ...)."""

    h: Array        # (S+1, B, H)
    zr: Array       # (S, B, 2H), the gates z|r
    h_cand: Array   # (S, B, H), the candidate h~
    reverse: bool

    @classmethod
    def start(cls, steps: int, boundary: Array, reverse: bool = False) -> "_Chain":
        h = np.empty((steps + 1,) + boundary.shape)
        h[steps if reverse else 0] = boundary
        zr = np.empty((steps,) + boundary.shape[:-1] + (2 * boundary.shape[-1],))
        return cls(h, zr, np.empty((steps,) + boundary.shape), reverse)

    @property
    def h_prev(self) -> Array:
        """(S, B, H): the state each step starts from."""
        return self.h[1:] if self.reverse else self.h[:-1]

    @property
    def states(self) -> Array:
        """(S, B, H): the state each step ends in."""
        return self.h[:-1] if self.reverse else self.h[1:]


def _gate_blocks(u: Array) -> tuple[Array, Array]:
    """Contiguous copies of u's z|r and h~ column blocks: per-step products
    run faster on them than on strided slices, to the same bits."""
    n = u.shape[-2]
    return np.ascontiguousarray(u[..., : 2 * n]), np.ascontiguousarray(u[..., 2 * n :])


def _gru_step(
    u_zr: Array, u_h: Array, h_prev: Array, zr: Array, h_cand: Array, h: Array, xw: Array
) -> None:
    """One GRU step, h = (1 - z) * h_prev + z * h~, from xw = x @ w + b
    (B, 3H) and u's z|r and h~ blocks; writes z|r, h~ and h (B, ...), or
    with a stacked ensemble's leading axis M on every argument."""
    n = h_prev.shape[-1]
    np.add(xw[..., : 2 * n], np.matmul(h_prev, u_zr, out=zr), out=zr)
    zr *= 0.5                  # sigmoid in the tanh form, which cannot overflow
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5
    rh = zr[..., n:] * h_prev
    np.tanh(np.add(xw[..., 2 * n :], np.matmul(rh, u_h, out=h_cand), out=h_cand), out=h_cand)
    np.subtract(h_cand, h_prev, out=h)
    h *= zr[..., :n]
    h += h_prev


def _gru_step_backward(
    u_zr: Array, u_h: Array, h_prev: Array, zr: Array, h_cand: Array, dh: Array, d_xw: Array
) -> Array:
    """Backprop one _gru_step: writes d(xw) (B, 3H) into d_xw, returns dh_prev."""
    n = h_prev.shape[1]
    z, r = zr[:, :n], zr[:, n:]
    da_h = dh * z * (1.0 - h_cand * h_cand)                      # through tanh
    d_xw[:, 2 * n :] = da_h
    drh = da_h @ u_h.T
    # through the sigmoids: dh (h~ - h_prev) z (1 - z) | drh h_prev r (1 - r)
    d_zr = np.concatenate([dh * (h_cand - h_prev), drh * h_prev], axis=1)
    d_zr *= zr
    one_minus = 1.0 - zr
    d_zr *= one_minus
    d_xw[:, : 2 * n] = d_zr
    dh_prev = d_zr @ u_zr.T
    dh_prev += dh * one_minus[:, :n] + drh * r
    return dh_prev


def _gru_weight_grads(grads: GruParams, xs: Array, chain: _Chain, d_xw: Array) -> None:
    """Add a chain's w, u and b grads, one GEMM each, from its inputs xs
    (S, B, input), its buffers and input-projection grads d_xw (S, B, 3H);
    r * h_prev is recomputed here, not kept by each step."""
    n = d_xw.shape[2] // 3
    rows = d_xw.reshape(-1, 3 * n)
    rh = chain.zr[:, :, n:] * chain.h_prev
    grads.w += xs.reshape(-1, xs.shape[2]).T @ rows
    grads.u[:, : 2 * n] += chain.h_prev.reshape(-1, n).T @ rows[:, : 2 * n]
    grads.u[:, 2 * n :] += rh.reshape(-1, n).T @ rows[:, 2 * n :]
    grads.b += rows.sum(axis=0)


def _gru_chain(p: GruParams, xw: Array, chain: _Chain) -> None:
    """Run one GRU over input projections xw (S, B, 3H) into chain's buffers."""
    u_zr, u_h = _gate_blocks(p.u)
    h_prev, states = chain.h_prev, chain.states
    for i in reversed(range(len(xw))) if chain.reverse else range(len(xw)):
        _gru_step(u_zr, u_h, h_prev[i], chain.zr[i], chain.h_cand[i], states[i], xw[i])


def _gru_chain_backward(p: GruParams, chain: _Chain, d_states: Array) -> Array:
    """Backprop a _gru_chain from d_states (S, B, H); returns d(xw) (S, B, 3H)."""
    steps, batch, n = d_states.shape
    u_zr, u_h = _gate_blocks(p.u)
    d_xw = np.empty((steps, batch, 3 * n))
    dh = np.zeros((batch, n))
    h_prev = chain.h_prev
    for i in range(steps) if chain.reverse else reversed(range(steps)):
        dh = _gru_step_backward(u_zr, u_h, h_prev[i], chain.zr[i], chain.h_cand[i],
                                d_states[i] + dh, d_xw[i])
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
    through them exact pass-throughs.  Training and inference run the same
    chains; cache, when given, keeps the inputs and the two chains' buffers
    for the backward pass.  Stacked params give annotations (M, B, S, 2H).
    """
    xs = np.moveaxis(params.src_emb[..., src_ids.T, :], -3, 0)  # (S, [M,] B, E), time-major
    padded = np.expand_dims(src_mask.T == 0.0, (*range(1, xs.ndim - 2), -1))
    if cache is not None:
        cache.update(src_ids=src_ids, xs=xs)
    h = params.hidden_dim
    zeros = np.zeros(xs.shape[1:-1] + (h,))
    annotations = np.empty(zeros.shape[:-1] + (len(xs), 2 * h))
    for prefix, columns in (("enc_fwd", slice(0, h)), ("enc_bwd", slice(h, 2 * h))):
        p = getattr(params, prefix)
        xw = xs @ p.w
        xw += p.b[..., None, :]
        np.copyto(xw[..., :h], -np.inf, where=padded)
        chain = _Chain.start(len(xs), zeros, reverse=prefix == "enc_bwd")
        _gru_chain(p, xw, chain)
        if cache is not None:
            cache[prefix] = chain
        annotations[..., columns] = np.moveaxis(chain.states, 0, -2)
    return annotations


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
        d_xw = _gru_chain_backward(p, cache[prefix], d_chain)
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
    per source under each member of a stacked ensemble, s_prev is
    (B, M, K, H), annotations and proj are (B, M, 1, S, ...) and src_mask
    (B, 1, 1, S); the results then are (B, M, K, ...).
    """
    m = (s_prev @ params.att_w)[..., None, :] + proj
    np.tanh(m, out=m)                                          # (B, S, H)
    scores = (m @ params.att_v[..., None, :, None])[..., 0]    # (B, S)
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
    tanh_grad = m * m
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    d_pre = d_scores[:, :, None] * params.att_v
    d_pre *= tanh_grad
    d_pre_sum += d_pre
    d_query = d_pre.sum(axis=1)
    grads.att_w += s_prev.T @ d_query
    return d_query @ params.att_w.T


def init_decoder_state_batch(params: ModelParams, annotations: Array) -> Array:
    """s_0 = tanh(W_init . first backward state + b_init), ([M,] B, H)."""
    first = annotations[..., 0, params.hidden_dim:] @ params.init_w
    return np.tanh(first + params.init_b[..., None, :])


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
    s0 = init_decoder_state_batch(params, annotations)

    prev_ids = np.concatenate(
        [np.full((batch, 1), start_id, dtype=tgt_ids.dtype), tgt_ids[:, :-1]], axis=1
    )
    ey = params.tgt_emb[prev_ids.T]                                # (T, B, E), time-major
    xw = ey @ dec.w[:e]                                            # each step adds its context
    xw += dec.b
    chain = _Chain.start(tgt_len, s0)
    u_zr, u_h = _gate_blocks(dec.u)
    contexts = np.empty((tgt_len, batch, 2 * h))
    att_caches = []
    for t in range(tgt_len):
        contexts[t], _, att_cache = attend_batch(params, chain.h[t], annotations, proj, src_mask)
        xw[t] += contexts[t] @ dec.w[e:]
        _gru_step(u_zr, u_h, chain.h[t], chain.zr[t], chain.h_cand[t], chain.h[t + 1], xw[t])
        att_caches.append(att_cache)

    readout = np.concatenate([chain.states, ey, contexts], axis=2)  # (T, B, H+E+2H)
    probs, log_probs = _softmax_rows(readout @ params.out_w + params.out_b)
    gold = np.take_along_axis(log_probs, tgt_ids.T[:, :, None], axis=2)[:, :, 0]
    loss = -(gold * tgt_mask.T).sum() / batch
    cache = dict(
        annotations=annotations, enc_cache=enc_cache, prev_ids=prev_ids,
        tgt_ids=tgt_ids, tgt_mask=tgt_mask, readout=readout, probs=probs,
        att_caches=att_caches, dec_chain=chain,
    )
    return loss, cache


def loss_backward(params: ModelParams, cache: dict) -> ModelParams:
    """Gradients of the mean per-sequence loss for every parameter.

    The output layer's gradients come first, one GEMM each for all steps;
    the loop over steps carries only the decoder state; the GRU, att_u and
    annotation gradients then take one GEMM each.  The loop drops each
    step's attention activations from cache once used, so a cache is
    backpropagated once.
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
    chain = cache["dec_chain"]
    u_zr, u_h = _gate_blocks(dec.u)
    att_caches = cache.pop("att_caches")  # each step's (B, S, H) activations go once used
    weights = np.stack([att_cache[2] for att_cache in att_caches], axis=2)  # (B, S, T)
    ds = np.zeros((batch, h))
    for t in reversed(range(tgt_len)):
        ds = _gru_step_backward(u_zr, u_h, chain.h[t], chain.zr[t], chain.h_cand[t],
                                ds + d_readout[t, :, :h], d_xw[t])
        d_contexts[t] = d_readout[t, :, h + e :] + d_xw[t] @ dec.w[e:].T
        ds = ds + attend_backward(params, att_caches.pop(), d_contexts[t], annotations,
                                  d_pre_sum, grads)

    _gru_weight_grads(grads.dec, readout[:, :, h:], chain, d_xw)
    d_ey = d_readout[:, :, h : h + e] + d_xw @ dec.w[:e].T
    _scatter_rows(grads.tgt_emb, cache["prev_ids"].T, d_ey)

    grads.att_u += annotations.reshape(-1, 2 * h).T @ d_pre_sum.reshape(-1, h)
    d_annotations = d_pre_sum @ params.att_u.T
    d_annotations += weights @ d_contexts.transpose(1, 0, 2)

    # decoder initialization, from the first backward state; s_0 is chain.h[0]
    s0 = chain.h[0]
    da = ds * (1.0 - s0 * s0)
    grads.init_w += annotations[:, 0, h:].T @ da
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


def source_ids(vocab: Vocabulary, tokens: TokenSequence, cfg: FilterConfig) -> list[int]:
    """The ids a model reads for one source: its first cfg.max_source_len
    tokens, then EOS.  Training, validation, evaluate and generate all
    build their sources here."""
    return vocab.encode(tokens[: cfg.max_source_len], add_eos=True)


def _check_ids(ids: list[int], vocab_size: int, what: str) -> None:
    for i in ids:
        if not 0 <= i < vocab_size:
            raise ValueError(f"{what} id {i} out of range [0, {vocab_size})")


# ---------------------------------------------------------------------------
# Inference: a stacked ensemble encodes a batch of sources once, then steps K
# hypotheses of each; every member's products are the BLAS calls it makes alone.

def encode_sources(params: ModelParams, sources: list[list[int]],
                   at_once: int) -> tuple[Array, ...]:
    """Encode id sequences (EOS appended), padded to the longest, under each
    member of a stacked ensemble, at_once members to a stacked chain:
    returns the annotations (B, M, S, 2H), their projection annotations @
    att_u (B, M, S, H), the mask (B, S) and the states s_0 (M, B, H)."""
    for ids in sources:
        _check_ids(ids, params.src_vocab_size, "source")
    src_ids, src_mask = _pad_sequences(sources, "source")
    members = len(params.flat)
    if at_once >= members:
        annotations = encode_batch(params, src_ids, src_mask)      # (M, B, S, 2H)
    else:
        annotations = np.concatenate([encode_batch(params.like(params.flat[lo : lo + at_once]),
                                                   src_ids, src_mask)
                                      for lo in range(0, members, at_once)])
    by_source = annotations.swapaxes(0, 1)
    return (by_source, by_source @ params.att_u, src_mask,
            init_decoder_state_batch(params, annotations))


def decoder_step_batch(params: ModelParams, s_prev: Array, prev_ids: Array, annotations: Array,
                       proj: Array, src_mask: Array) -> tuple[Array, Array]:
    """One decoder step of a stacked ensemble for K hypotheses of each of B
    sources: from the members' states (M, B, K, H), the last tokens (B, K)
    and the encoded sources (see encode_sources), the next states
    (M, B, K, H) and distributions (M, B, K, V)."""
    members, batch, width, h = s_prev.shape
    rows = batch * width
    ey = params.tgt_emb[:, prev_ids]                               # (M, B, K, E)
    context, _, _ = attend_batch(params, s_prev.swapaxes(0, 1), annotations[:, :, None],
                                 proj[:, :, None], src_mask[:, None, None])
    gru_in = np.concatenate([ey, context.swapaxes(0, 1)], axis=3).reshape(members, rows, -1)
    s_new = np.empty((members, rows, h))
    # one step does not repay the contiguous copies of the gate blocks
    xw = gru_in @ params.dec.w + params.dec.b[:, None]
    _gru_step(*np.split(params.dec.u, [2 * h], axis=2), s_prev.reshape(members, rows, h),
              np.empty((members, rows, 2 * h)), np.empty((members, rows, h)), s_new, xw)
    readout = np.concatenate([s_new, gru_in], axis=2)              # (M, rows, H+E+2H)
    probs, _ = _softmax_rows(readout @ params.out_w + params.out_b[:, None])
    return s_new.reshape(s_prev.shape), probs.reshape(members, batch, width, -1)


# ---------------------------------------------------------------------------
# Single-sequence views over the batched kernels, for tests.

def encode(source_ids: list[int], params: ModelParams) -> Array:
    """Annotations (S, 2H) for one source sequence (EOS already appended)."""
    _check_ids(source_ids, params.src_vocab_size, "source")
    return encode_batch(params, *_pad_sequences([source_ids], "source"))[0]


def init_decoder_state(annotations: Array, params: ModelParams) -> Array:
    return init_decoder_state_batch(params, annotations[None, :, :])[0]


def decoder_step(
    prev_state: Array, prev_target_id: int, annotations: Array, params: ModelParams
) -> tuple[Array, Array]:
    """One decoder step: next state and the distribution over target ids."""
    _check_ids([prev_target_id], params.tgt_vocab_size, "target")
    ann, mask = annotations[None, None], np.ones((1, annotations.shape[0]))  # B = M = 1
    s_new, probs = decoder_step_batch(params.like(params.flat[None]), prev_state[None, None, None],
                                      np.array([[prev_target_id]]), ann, ann @ params.att_u, mask)
    return s_new[0, 0, 0], probs[0, 0, 0]


def _batch_forward(
    batch: list[tuple[list[int], list[int]]], params: ModelParams, start_id: int
) -> tuple[float, dict]:
    for source, target in batch:
        _check_ids(source, params.src_vocab_size, "source")
        _check_ids([start_id, *target], params.tgt_vocab_size, "target")
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
