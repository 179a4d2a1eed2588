"""Tests for greedy decoding and ensemble beam search."""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.corpus import EOS_ID, START_ID
from diffmsg.nmt import (
    Checkpoint,
    CheckpointError,
    Hyperparams,
    beam_search,
    decoder_step,
    encode,
    ensemble_decode,
    greedy_decode,
    init_decoder_state,
    init_optimizer_state,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from diffmsg.nmt import decoding


def make_params(seed, src_vocab=9, tgt_vocab=8, embed=3, hidden=4):
    hyper = Hyperparams(embed_dim=embed, hidden_dim=hidden, seed=seed)
    return init_params(hyper, src_vocab, tgt_vocab)


def random_sources(rng, n, vocab=9, max_len=6):
    sources = []
    for _ in range(n):
        length = rng.integers(1, max_len)
        sources.append([int(rng.integers(4, vocab)) for _ in range(length)] + [EOS_ID])
    return sources


class TestGreedyVersusBeam:
    def test_beam_one_single_model_equals_greedy(self):
        params = make_params(seed=21)
        rng = np.random.default_rng(0)
        for source in random_sources(rng, 10):
            greedy = greedy_decode(params, source, max_len=8)
            beamed = ensemble_decode([params], source, beam_width=1, max_len=8)
            assert greedy == beamed


class TestEnsembleDegeneracy:
    @pytest.mark.parametrize("beam_width", [1, 5])
    def test_identical_members_match_single_model(self, beam_width):
        params = make_params(seed=33)
        checkpoint = Checkpoint(params, None, 0, None)
        rng = np.random.default_rng(1)
        for source in random_sources(rng, 20):
            single = ensemble_decode([checkpoint], source, beam_width, max_len=8)
            quad = ensemble_decode([checkpoint] * 4, source, beam_width, max_len=8)
            assert single == quad

    def test_mismatched_vocabularies_rejected(self):
        a = make_params(seed=1, tgt_vocab=8)
        b = make_params(seed=2, tgt_vocab=7)
        with pytest.raises(ValueError, match="share"):
            ensemble_decode([a, b], [4, EOS_ID], beam_width=2, max_len=5)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            ensemble_decode([], [4, EOS_ID], beam_width=1, max_len=5)

    def test_invalid_beam_width_rejected(self):
        params = make_params(seed=1)
        with pytest.raises(ValueError):
            ensemble_decode([params], [4, EOS_ID], beam_width=0, max_len=5)


def exhaustive_best(params, source, max_len, start_id, eos_id):
    """Enumerate every decodable hypothesis and return the best by score.

    Hypotheses are token strings over the non-EOS vocabulary, either
    terminated by an explicit EOS choice (score includes the EOS step) or
    running to max_len without one.
    """
    annotations = encode(source, params)
    s0 = init_decoder_state(annotations, params)
    vocab = params.tgt_vocab_size
    other = [t for t in range(vocab) if t != eos_id]

    def score_of(tokens, with_eos):
        state, prev = s0, start_id
        total = 0.0
        for token in tokens:
            state, dist = decoder_step(state, prev, annotations, params)
            total += math.log(dist[token])
            prev = token
        if with_eos:
            _, dist = decoder_step(state, prev, annotations, params)
            total += math.log(dist[eos_id])
        return total

    candidates = []
    for length in range(max_len):  # EOS consumes the final step
        for tokens in itertools.product(other, repeat=length):
            candidates.append((score_of(tokens, with_eos=True), list(tokens)))
    for tokens in itertools.product(other, repeat=max_len):
        candidates.append((score_of(list(tokens), with_eos=False), list(tokens)))
    return max(candidates, key=lambda item: item[0])


class TestBeamExactness:
    def test_wide_beam_matches_exhaustive_enumeration(self):
        # vocabulary of 3, three decode steps, beam at least 3^3 = 27
        for seed in (5, 6, 7):
            params = make_params(seed=seed, tgt_vocab=3, src_vocab=6, embed=2, hidden=3)
            source = [4, 5, 4]
            start_id, eos_id = 0, 2
            best_score, best_tokens = exhaustive_best(params, source, 3, start_id, eos_id)
            decoded = ensemble_decode(
                [params], source, beam_width=27, max_len=3, start_id=start_id, eos_id=eos_id
            )
            assert decoded == best_tokens, f"seed {seed}: {decoded} vs {best_tokens}"

    def test_output_never_exceeds_max_len(self):
        params = make_params(seed=8)
        rng = np.random.default_rng(2)
        for source in random_sources(rng, 5):
            out = ensemble_decode([params], source, beam_width=3, max_len=4)
            assert len(out) <= 4
            assert EOS_ID not in out


# --- the batched search against the per-hypothesis search it replaced -------

@dataclass
class _Hypothesis:
    tokens: tuple
    score: float
    states: list
    prev_id: int


def reference_ensemble_decode(models, source_ids, beam_width, max_len,
                              start_id=START_ID, eos_id=EOS_ID):
    """One decoder_step per hypothesis and model; every candidate listed."""
    annotations = [encode(source_ids, m) for m in models]
    beam = [_Hypothesis((), 0.0, [init_decoder_state(a, m) for a, m in zip(annotations, models)],
                        start_id)]
    completed = []
    for _ in range(max_len):
        candidates = []
        for hyp_index, hyp in enumerate(beam):
            new_states, dists = [], []
            for m, model in enumerate(models):
                state, dist = decoder_step(hyp.states[m], hyp.prev_id, annotations[m], model)
                new_states.append(state)
                dists.append(dist)
            mean_dist = np.mean(np.stack(dists, axis=0), axis=0)
            with np.errstate(divide="ignore"):
                log_probs = np.log(mean_dist)
            for token in range(mean_dist.shape[0]):
                score = hyp.score + float(log_probs[token])
                candidates.append((score, hyp_index, token, new_states))
        candidates.sort(key=lambda item: -item[0])
        next_beam = []
        for score, hyp_index, token, new_states in candidates[:beam_width]:
            parent = beam[hyp_index]
            if token == eos_id:
                completed.append((score, parent.tokens))
            else:
                next_beam.append(_Hypothesis(parent.tokens + (token,), score, new_states, token))
        beam = next_beam
        if not beam:
            break
    completed.extend((hyp.score, hyp.tokens) for hyp in beam)
    best_score, best_tokens = completed[0]
    for score, tokens in completed[1:]:
        if score > best_score:
            best_score, best_tokens = score, tokens
    return list(best_tokens)


def peaked(seed, eos_bias):
    """A tiny model with scaled-up weights, whose distributions depend on
    source and state far more than those of a fresh one, which are near
    uniform; with its EOS bias, beams end at varied steps."""
    params = make_params(seed=seed)
    for tensor in params.tensors().values():
        tensor *= 20.0
    params.out_b[EOS_ID] += eos_bias
    return params


MODELS = [peaked(70 + i, bias) for i, bias in enumerate((-1.0, 0.0, -0.5, 0.5))]


class TestAgainstPerHypothesisSearch:
    @pytest.mark.parametrize("n_models", [1, 4])
    @pytest.mark.parametrize("beam_width", [1, 3, 5, 40])
    def test_tokens_match_reference(self, beam_width, n_models):
        models = MODELS[:n_models]
        rng = np.random.default_rng(100 * beam_width + n_models)
        sources = random_sources(rng, 12)
        expected = [reference_ensemble_decode(models, s, beam_width, 8) for s in sources]
        assert beam_search(models, sources, beam_width, 8) == expected
        assert [ensemble_decode(models, s, beam_width, 8) for s in sources] == expected

    def test_fixture_beams_end_at_varied_steps(self):
        sources = random_sources(np.random.default_rng(1), 12)
        lengths = {len(tokens) for tokens in beam_search(MODELS, sources, 5, 8)}
        assert 8 in lengths and len(lengths) > 1

    def test_greedy_matches_reference(self):
        rng = np.random.default_rng(5)
        for params in MODELS:
            for source in random_sources(rng, 6):
                expected = reference_ensemble_decode([params], source, 1, 10)
                assert greedy_decode(params, source, max_len=10) == expected

    def test_zero_max_len_gives_empty_output(self):
        assert beam_search(MODELS, [[4, EOS_ID], [5, 6, EOS_ID]], 5, 0) == [[], []]


source_lists = st.lists(
    st.lists(st.integers(4, 8), max_size=9).map(lambda ids: ids + [EOS_ID]),
    min_size=1, max_size=7,
)


class TestBatchEqualsAlone:
    @settings(max_examples=30, deadline=None)
    @given(sources=source_lists, beam_width=st.sampled_from([1, 5]),
           n_models=st.sampled_from([1, 3]))
    def test_each_source_decodes_as_alone(self, sources, beam_width, n_models):
        models = MODELS[:n_models]
        alone = [ensemble_decode(models, s, beam_width, max_len=7) for s in sources]
        assert beam_search(models, sources, beam_width, max_len=7) == alone
        if n_models == 1 and beam_width == 1:
            assert alone == [greedy_decode(models[0], s, max_len=7) for s in sources]

    def test_batches_respect_the_step_bound(self, monkeypatch):
        sizes = []
        search = decoding._search

        def recording(models, sources, *args):
            sizes.append(len(sources))
            return search(models, sources, *args)

        rng = np.random.default_rng(9)
        sources = random_sources(rng, 20, max_len=12)
        expected = beam_search(MODELS, sources, 5, 8)
        hidden = MODELS[0].hidden_dim
        longest = max(map(len, sources))
        monkeypatch.setattr(decoding, "_search", recording)
        monkeypatch.setattr(decoding, "MAX_STEP_ELEMENTS", 3 * 5 * longest * hidden)
        assert beam_search(MODELS, sources, 5, 8) == expected
        assert sizes == [3] * 6 + [2]

    def test_out_of_range_and_empty_sources_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            beam_search(MODELS, [[4, EOS_ID], [99, EOS_ID]], 2, 5)
        with pytest.raises(ValueError, match="non-empty"):
            beam_search(MODELS, [[4, EOS_ID], []], 2, 5)

    def test_a_batch_of_empty_sources_rejected(self):
        # the batch size rule divides by the longest source
        with pytest.raises(ValueError, match="non-empty"):
            beam_search(MODELS, [[]], 2, 5)

    def test_no_sources(self):
        assert beam_search(MODELS, [], 5, 8) == []


# --- parameter-only checkpoint loads ------------------------------------------

def full_checkpoint(tmp_path):
    params = make_params(seed=3)
    state = init_optimizer_state(params)
    state.grad_sq += 0.25
    state.update_sq += 0.5
    path = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(params, state, 7, 12.5, seed=3, best_bleu=20.0, stall=2), path)
    return path


class TestParameterOnlyLoad:
    def test_tensors_equal_the_full_load(self, tmp_path):
        path = full_checkpoint(tmp_path)
        full = load_checkpoint(path)
        light = load_checkpoint(path, params_only=True)
        assert light.optimizer_state is None and full.optimizer_state is not None
        for name, tensor in full.params.tensors().items():
            loaded = light.params.tensors()[name]
            np.testing.assert_array_equal(loaded, tensor)
            assert loaded.flags.writeable
        assert (light.minibatch_index, light.validation_bleu, light.best_bleu, light.stall) == (
            7, 12.5, 20.0, 2)

    @pytest.mark.parametrize("cut", [8, 1000, "half"])
    def test_truncated_file_rejected(self, tmp_path, cut):
        # cuts at the end fall in the optimizer state, which this load never reads
        path = full_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] if cut == "half" else data[:-cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path, params_only=True)

    def test_foreign_files_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        for data in (b"\x00\x01 not a checkpoint\n more", b'{"format": 2}\n', b"[2]\n", b""):
            path.write_bytes(data)
            with pytest.raises(CheckpointError):
                load_checkpoint(path, params_only=True)

    def test_parameters_not_leading_the_payload_rejected(self, tmp_path):
        path = full_checkpoint(tmp_path)
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["tensors"].reverse()  # same tensors, optimizer state first
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="start with the parameters"):
            load_checkpoint(path, params_only=True)

    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dim", "src_vocab_size",
                                     "tgt_vocab_size"])
    def test_dims_still_checked(self, tmp_path, key):
        path = full_checkpoint(tmp_path)
        dims = {"embed_dim": 3, "hidden_dim": 4, "src_vocab_size": 9, "tgt_vocab_size": 8}
        assert load_checkpoint(path, tuple(dims.values()), params_only=True).optimizer_state is None
        dims[key] = 2
        with pytest.raises(CheckpointError, match=f": {key} is .* give 2$"):
            load_checkpoint(path, tuple(dims.values()), params_only=True)
