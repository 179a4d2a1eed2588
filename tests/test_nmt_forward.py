"""Forward-pass tests for the encoder-decoder.

The oracle below re-derives every quantity with plain per-vector loops and
explicit formulas, sharing no code with the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.corpus import EOS_ID, START_ID
from diffmsg.nmt import (
    Hyperparams,
    batch_loss,
    decoder_step,
    encode,
    gradients,
    init_decoder_state,
    init_params,
)
from diffmsg.nmt import decoding, model
from diffmsg.nmt.model import GruParams, attend_batch


def tiny_params(embed=2, hidden=3, src_vocab=6, tgt_vocab=5, seed=11):
    hyper = Hyperparams(embed_dim=embed, hidden_dim=hidden, seed=seed)
    return init_params(hyper, src_vocab, tgt_vocab)


# --- scripted oracle -------------------------------------------------------

def oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_gru(p, h_prev, x):
    # the fused tensors hold the gates as column blocks z|r|h
    w_z, w_r, w_h = np.split(p.w, 3, axis=1)
    u_z, u_r, u_h = np.split(p.u, 3, axis=1)
    b_z, b_r, b_h = np.split(p.b, 3)
    z = oracle_sigmoid(x @ w_z + h_prev @ u_z + b_z)
    r = oracle_sigmoid(x @ w_r + h_prev @ u_r + b_r)
    cand = np.tanh(x @ w_h + (r * h_prev) @ u_h + b_h)
    return (1.0 - z) * h_prev + z * cand


def oracle_encode(params, ids):
    h = params.hidden_dim
    fwd, bwd = [], [None] * len(ids)
    state = np.zeros(h)
    for i in ids:
        state = oracle_gru(params.enc_fwd, state, params.src_emb[i])
        fwd.append(state)
    state = np.zeros(h)
    for pos in reversed(range(len(ids))):
        state = oracle_gru(params.enc_bwd, state, params.src_emb[ids[pos]])
        bwd[pos] = state
    return np.stack([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])


def oracle_attend(params, s_prev, annotations):
    scores = np.array(
        [params.att_v @ np.tanh(params.att_w.T @ s_prev + params.att_u.T @ a) for a in annotations]
    )
    exp = np.exp(scores - scores.max())
    weights = exp / exp.sum()
    context = sum(w * a for w, a in zip(weights, annotations))
    return context, weights


def oracle_step(params, s_prev, prev_id, annotations):
    context, _ = oracle_attend(params, s_prev, annotations)
    ey = params.tgt_emb[prev_id]
    s_new = oracle_gru(params.dec, s_prev, np.concatenate([ey, context]))
    logits = np.concatenate([s_new, ey, context]) @ params.out_w + params.out_b
    exp = np.exp(logits - logits.max())
    return s_new, exp / exp.sum()


def oracle_loss(params, source_ids, target_ids):
    annotations = oracle_encode(params, source_ids)
    state = np.tanh(annotations[0][params.hidden_dim:] @ params.init_w + params.init_b)
    prev = START_ID
    total = 0.0
    for gold in target_ids:
        state, dist = oracle_step(params, state, prev, annotations)
        total -= math.log(dist[gold])
        prev = gold
    return total


# --- encode ----------------------------------------------------------------

class TestEncode:
    def test_minimal_sequence(self):
        params = tiny_params()
        annotations = encode([EOS_ID], params)
        assert annotations.shape == (1, 2 * params.hidden_dim)
        assert np.isfinite(annotations).all()

    def test_deterministic(self):
        params = tiny_params()
        ids = [4, 5, EOS_ID]
        np.testing.assert_array_equal(encode(ids, params), encode(ids, params))

    def test_matches_oracle(self):
        params = tiny_params(embed=3, hidden=4)
        ids = [4, 5, 4, EOS_ID]
        np.testing.assert_allclose(encode(ids, params), oracle_encode(params, ids), atol=1e-10)

    def test_swapping_directions_reverses_chains(self):
        params = tiny_params(embed=2, hidden=3)
        swapped = params.copy()
        swapped.enc_fwd, swapped.enc_bwd = swapped.enc_bwd, swapped.enc_fwd
        ids = [4, 5, 4, 5, EOS_ID]
        h = params.hidden_dim
        forward_of_reversed = encode(ids[::-1], swapped)[:, :h]
        backward_original = encode(ids, params)[:, h:]
        np.testing.assert_allclose(forward_of_reversed, backward_original[::-1], atol=1e-12)

    def test_out_of_range_id(self):
        params = tiny_params(src_vocab=6)
        with pytest.raises(ValueError, match="out of range"):
            encode([6], params)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            encode([], tiny_params())


# --- GRU chain kernels against the per-step form ---------------------------
#
# The reference keeps a tuple of arrays per step and concatenates them for
# the weight gradients, with the same float operations in the same order as
# the chain kernels: their time-major buffers must give the same floats to
# the bit.

def per_step_gru_step(p, h_prev, xw):
    n = h_prev.shape[1]
    zr = 0.5 * (np.tanh(0.5 * (xw[:, : 2 * n] + h_prev @ p.u[:, : 2 * n])) + 1.0)
    z, r = zr[:, :n], zr[:, n:]
    rh = r * h_prev
    h_cand = np.tanh(xw[:, 2 * n :] + rh @ p.u[:, 2 * n :])
    return h_prev + z * (h_cand - h_prev), (h_prev, z, r, rh, h_cand)


def per_step_gru_step_backward(p, cache, dh, d_xw):
    h_prev, z, r, rh, h_cand = cache
    n = h_prev.shape[1]
    da_h = dh * z * (1.0 - h_cand * h_cand)
    drh = da_h @ p.u[:, 2 * n :].T
    d_xw[:, :n] = dh * (h_cand - h_prev) * z * (1.0 - z)
    d_xw[:, n : 2 * n] = drh * h_prev * r * (1.0 - r)
    d_xw[:, 2 * n :] = da_h
    return dh * (1.0 - z) + drh * r + d_xw[:, : 2 * n] @ p.u[:, : 2 * n].T


def per_step_gru_weight_grads(grads, xs, caches, d_xw):
    n = d_xw.shape[2] // 3
    rows = d_xw.reshape(-1, 3 * n)
    h_prev = np.concatenate([cache[0] for cache in caches])
    rh = np.concatenate([cache[3] for cache in caches])
    grads.w += xs.reshape(-1, xs.shape[2]).T @ rows
    grads.u[:, : 2 * n] += h_prev.T @ rows[:, : 2 * n]
    grads.u[:, 2 * n :] += rh.T @ rows[:, 2 * n :]
    grads.b += rows.sum(axis=0)


def per_step_gru_chain(p, xw, reverse, caches, h):
    states = np.empty(xw.shape[:2] + (h.shape[1],))
    for i in reversed(range(len(xw))) if reverse else range(len(xw)):
        h, caches[i] = per_step_gru_step(p, h, xw[i])
        states[i] = h
    return states


def per_step_gru_chain_backward(p, caches, d_states, reverse):
    steps, batch, n = d_states.shape
    d_xw = np.empty((steps, batch, 3 * n))
    dh = np.zeros((batch, n))
    for i in range(steps) if reverse else reversed(range(steps)):
        dh = per_step_gru_step_backward(p, caches[i], d_states[i] + dh, d_xw[i])
    return d_xw


class TestChainKernels:
    @given(batch=st.integers(1, 5), steps=st.integers(1, 8), hidden=st.integers(1, 6),
           inputs=st.integers(1, 4), reverse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_buffers_match_per_step_tuples_to_the_bit(self, batch, steps, hidden, inputs,
                                                      reverse, seed):
        rng = np.random.default_rng(seed)
        p = GruParams(rng.uniform(-1, 1, (inputs, 3 * hidden)),
                      rng.uniform(-1, 1, (hidden, 3 * hidden)), rng.uniform(-1, 1, 3 * hidden))
        xs = rng.standard_normal((steps, batch, inputs))
        xw = xs @ p.w + p.b
        # padded rows: the update gate's pre-activation is -inf there
        np.copyto(xw[:, :, :hidden], -np.inf, where=rng.random((steps, batch, 1)) < 0.3)
        boundary = rng.standard_normal((batch, hidden))
        d_states = rng.standard_normal((steps, batch, hidden))

        caches = [None] * steps
        want_states = per_step_gru_chain(p, xw, reverse, caches, boundary)
        want_d_xw = per_step_gru_chain_backward(p, caches, d_states, reverse)
        want = GruParams(*(np.zeros_like(t) for t in (p.w, p.u, p.b)))
        per_step_gru_weight_grads(want, xs, caches, want_d_xw)

        chain = model._Chain.start(steps, boundary, reverse)
        model._gru_chain(p, xw, chain)
        d_xw = model._gru_chain_backward(p, chain, d_states)
        got = GruParams(*(np.zeros_like(t) for t in (p.w, p.u, p.b)))
        model._gru_weight_grads(got, xs, chain, d_xw)

        assert np.array_equal(chain.states, want_states)
        assert np.array_equal(d_xw, want_d_xw)
        for (name, g), (_, w) in zip(got.tensors(), want.tensors()):
            assert np.array_equal(g, w), name


# --- a stacked ensemble against its members alone ---------------------------
#
# Stacked, every member's products must stay the BLAS calls it makes alone:
# the reference runs one model's encoder on the unstacked (training) path and
# writes its decoder step out as one model's numpy calls, (B, K, ...).

def alone_step(p, s_prev, prev_ids, annotations, proj, src_mask):
    """One model's decoder step for K hypotheses of each of B sources."""
    batch, width, h = s_prev.shape
    rows = batch * width
    m = (s_prev @ p.att_w)[:, :, None, :] + proj[:, None]
    np.tanh(m, out=m)
    scores = np.where(src_mask[:, None] > 0.0, m @ p.att_v, -np.inf)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = weights / weights.sum(axis=-1, keepdims=True)
    context = (weights[..., None, :] @ annotations[:, None])[..., 0, :]
    gru_in = np.concatenate([p.tgt_emb[prev_ids], context], axis=2).reshape(rows, -1)
    s_new = np.empty((rows, h))
    model._gru_step(p.dec.u[:, : 2 * h], p.dec.u[:, 2 * h :], s_prev.reshape(rows, h),
                    np.empty((rows, 2 * h)), np.empty((rows, h)), s_new,
                    gru_in @ p.dec.w + p.dec.b)
    probs, _ = model._softmax_rows(np.concatenate([s_new, gru_in], axis=1) @ p.out_w + p.out_b)
    return s_new.reshape(batch, width, h), probs.reshape(batch, width, -1)


class TestStackedEnsemble:
    @given(members=st.integers(1, 4), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           width=st.integers(1, 3), hidden=st.integers(1, 6), embed=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_member_computes_as_alone_to_the_bit(self, members, lengths, width, hidden,
                                                      embed, seed):
        rng = np.random.default_rng(seed)
        shape = tiny_params(embed=embed, hidden=hidden, src_vocab=7, tgt_vocab=6)
        alone = [shape.like(rng.uniform(-1, 1, shape.flat.size)) for _ in range(members)]
        stacked = shape.like(np.stack([p.flat for p in alone]))
        sources = [[int(i) for i in rng.integers(4, 7, n - 1)] + [EOS_ID] for n in lengths]
        src_ids, src_mask = model._pad_sequences(sources, "source")
        states = rng.standard_normal((members, len(sources), width, hidden))
        prev = rng.integers(0, 6, (len(sources), width))

        own = [(ann, ann @ p.att_u) for p in alone
               for ann in [model.encode_batch(p, src_ids, src_mask)]]
        for at_once in (members, 1):  # every member's chain stacked, or one at a time
            annotations, proj, mask, s0 = model.encode_sources(stacked, sources, at_once)
            for m, p in enumerate(alone):
                assert np.array_equal(annotations[:, m], own[m][0])
                assert np.array_equal(proj[:, m], own[m][1])
                assert np.array_equal(s0[m], model.init_decoder_state_batch(p, own[m][0]))
        # the default bound steps every member at once, a bound of 1 one at a time
        for bound in (decoding.MAX_STEP_ELEMENTS, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(decoding, "MAX_STEP_ELEMENTS", bound)
                s_new, probs = decoding._step(lambda lo, hi: stacked.like(stacked.flat[lo:hi]),
                                              states, prev, (annotations, proj, mask))
            for m, p in enumerate(alone):
                want_s, want_probs = alone_step(p, states[m], prev, *own[m], src_mask)
                assert np.array_equal(s_new[m], want_s)
                assert np.array_equal(probs[m], want_probs)


# --- attend_batch ----------------------------------------------------------

def attend_one(state, annotations, params, mask=None):
    """attend_batch over a batch of one source: context (2H,), weights (S,)."""
    ann = annotations[None]
    mask = np.ones((1, len(annotations))) if mask is None else mask[None]
    context, weights, _ = attend_batch(params, state[None], ann, ann @ params.att_u, mask)
    return context[0], weights[0]


class TestAttend:
    def test_single_annotation_weight_one(self):
        params = tiny_params()
        annotations = encode([EOS_ID], params)
        state = init_decoder_state(annotations, params)
        context, weights = attend_one(state, annotations, params)
        assert weights.shape == (1,)
        assert weights[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(context, annotations[0], atol=1e-12)

    def test_identical_annotations_split_evenly(self):
        params = tiny_params()
        one = encode([EOS_ID], params)
        annotations = np.vstack([one, one])
        state = init_decoder_state(annotations, params)
        _, weights = attend_one(state, annotations, params)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_matches_oracle(self):
        params = tiny_params(embed=3, hidden=4)
        annotations = encode([4, 5, EOS_ID], params)
        state = init_decoder_state(annotations, params)
        context, weights = attend_one(state, annotations, params)
        want_context, want_weights = oracle_attend(params, state, annotations)
        np.testing.assert_allclose(weights, want_weights, atol=1e-10)
        np.testing.assert_allclose(context, want_context, atol=1e-10)

    def test_weights_on_simplex(self):
        params = tiny_params()
        annotations = encode([4, 5, 4, EOS_ID], params)
        state = init_decoder_state(annotations, params)
        _, weights = attend_one(state, annotations, params)
        assert weights.min() >= 0.0
        assert abs(weights.sum() - 1.0) < 1e-6

    def test_padded_position_gets_zero_weight(self):
        params = tiny_params(embed=3, hidden=4)
        annotations = encode([4, 5, EOS_ID], params)
        state = init_decoder_state(annotations, params)
        padded = np.vstack([annotations, np.full(2 * params.hidden_dim, 5.0)])
        context, weights = attend_one(state, padded, params, mask=np.array([1.0, 1.0, 1.0, 0.0]))
        want_context, want_weights = oracle_attend(params, state, annotations)
        assert weights[3] == 0.0
        np.testing.assert_allclose(weights[:3], want_weights, atol=1e-10)
        np.testing.assert_allclose(context, want_context, atol=1e-10)


# --- decoder_step ----------------------------------------------------------

class TestDecoderStep:
    def test_distribution_normalized(self):
        params = tiny_params()
        annotations = encode([4, EOS_ID], params)
        state = init_decoder_state(annotations, params)
        _, dist = decoder_step(state, START_ID, annotations, params)
        assert dist.min() >= 0.0
        assert abs(dist.sum() - 1.0) < 1e-6

    def test_degenerate_vocab_forces_probability_one(self):
        params = tiny_params(tgt_vocab=1)
        annotations = encode([4, EOS_ID], params)
        state = init_decoder_state(annotations, params)
        _, dist = decoder_step(state, 0, annotations, params)
        assert dist.shape == (1,)
        assert dist[0] == pytest.approx(1.0)

    def test_matches_oracle(self):
        params = tiny_params(embed=2, hidden=3, tgt_vocab=5)
        annotations = encode([4, 5, EOS_ID], params)
        state = init_decoder_state(annotations, params)
        got_state, got_dist = decoder_step(state, START_ID, annotations, params)
        want_state, want_dist = oracle_step(params, state, START_ID, annotations)
        np.testing.assert_allclose(got_state, want_state, atol=1e-10)
        np.testing.assert_allclose(got_dist, want_dist, atol=1e-10)

    def test_invalid_prev_id(self):
        params = tiny_params(tgt_vocab=5)
        annotations = encode([EOS_ID], params)
        state = init_decoder_state(annotations, params)
        with pytest.raises(ValueError):
            decoder_step(state, 5, annotations, params)


# --- batch_loss of one pair ------------------------------------------------

class TestSequenceLoss:
    def test_certain_model_has_zero_loss(self):
        # a one-token vocabulary leaves softmax no choice: p = 1, loss = 0
        params = tiny_params(tgt_vocab=1)
        loss = batch_loss([([4, EOS_ID], [0, 0, 0])], params, start_id=0)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_uniform_model_analytic_loss(self):
        params = tiny_params(tgt_vocab=5)
        params.out_w[:] = 0.0
        params.out_b[:] = 0.0
        target = [4, 4, EOS_ID]
        loss = batch_loss([([4, EOS_ID], target)], params)
        assert loss == pytest.approx(len(target) * math.log(5), rel=1e-12)

    def test_matches_step_by_step_oracle(self):
        params = tiny_params(embed=2, hidden=3, src_vocab=7, tgt_vocab=5)
        source = [4, 6, 5, EOS_ID]
        target = [4, 3, 4, EOS_ID]
        loss = batch_loss([(source, target)], params)
        assert loss == pytest.approx(oracle_loss(params, source, target), abs=1e-9)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target sequence must be non-empty"):
            batch_loss([([EOS_ID], [])], tiny_params())

    @pytest.mark.parametrize("batch, side", [
        ([([4, EOS_ID], [4, EOS_ID]), ([EOS_ID], [])], "target"),
        ([([4, EOS_ID], [4, EOS_ID]), ([], [4, EOS_ID])], "source"),
        ([([], []), ([], [])], "source"),
    ], ids=["one_empty_target", "one_empty_source", "all_empty"])
    def test_empty_sequence_in_a_batch_rejected(self, batch, side):
        # unchecked, an empty target would add 0 loss to the batch mean
        for kernel in (batch_loss, gradients):
            with pytest.raises(ValueError, match=f"{side} sequence must be non-empty"):
                kernel(batch, tiny_params())

    @pytest.mark.parametrize("pair, start_id, named", [
        (([4, EOS_ID], [-1, EOS_ID]), START_ID, r"target id -1 out of range \[0, 5\)"),
        (([4, EOS_ID], [5, EOS_ID]), START_ID, r"target id 5 out of range \[0, 5\)"),
        (([-1, EOS_ID], [4, EOS_ID]), START_ID, r"source id -1 out of range \[0, 6\)"),
        (([6, EOS_ID], [4, EOS_ID]), START_ID, r"source id 6 out of range \[0, 6\)"),
        (([4, EOS_ID], [4, EOS_ID]), -1, r"target id -1 out of range \[0, 5\)"),
    ], ids=["negative_target", "target_of_vocab_size", "negative_source", "source_of_vocab_size",
            "negative_start"])
    def test_out_of_range_id_rejected(self, pair, start_id, named):
        # unchecked, -1 would read the last embedding row and V would be a
        # bare IndexError
        for kernel in (batch_loss, gradients):
            with pytest.raises(ValueError, match=named):
                kernel([pair], tiny_params(), start_id=start_id)
