"""Forward-pass tests for the encoder-decoder.

The oracle below re-derives every quantity with plain per-vector loops and
explicit formulas, sharing no code with the implementation.
"""

import math

import numpy as np
import pytest

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
from diffmsg.nmt.model import attend_batch


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
