"""Tests for Adadelta, the training loop, and checkpoint serialization."""

import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg import corpus
from diffmsg.corpus import EOS_ID, DatasetSplit, PreparedCommit, build_vocab
from diffmsg.nmt import training
from diffmsg.nmt import (
    Checkpoint,
    CheckpointError,
    Hyperparams,
    adadelta_update,
    batch_loss,
    gradients,
    init_optimizer_state,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from diffmsg.nmt.model import param_shapes


def tiny_params(seed=3, src_vocab=10, tgt_vocab=9):
    hyper = Hyperparams(embed_dim=4, hidden_dim=5, seed=seed)
    return init_params(hyper, src_vocab, tgt_vocab), hyper


def per_tensor(params, state):
    """The accumulators by tensor name, as (grad_sq, update_sq) views."""
    grad_sq, update_sq = params.like(state.grad_sq), params.like(state.update_sq)
    return {name: (grad_sq[name], update_sq[name]) for name in params}


class TestAdadelta:
    def test_zero_gradient_leaves_params_and_decays_accumulators(self):
        params, _ = tiny_params()
        state = init_optimizer_state(params)
        # warm the accumulators with one real step
        batch = [([4, EOS_ID], [4, EOS_ID])]
        adadelta_update(params, gradients(batch, params), state, 0.95, 1e-6)
        before = {k: v.copy() for k, v in params.tensors().items()}
        acc_before = {k: (g.copy(), u.copy()) for k, (g, u) in per_tensor(params, state).items()}

        zeros = params.like(np.zeros_like(params.flat))
        adadelta_update(params, zeros, state, 0.95, 1e-6)
        by_name = per_tensor(params, state)
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(tensor, before[name])
            np.testing.assert_allclose(by_name[name][0], 0.95 * acc_before[name][0], atol=1e-300)
            np.testing.assert_allclose(by_name[name][1], 0.95 * acc_before[name][1], atol=1e-300)

    def test_first_step_closed_form(self):
        # fresh accumulators, g = 1, rho = 0.95, eps = 1e-6:
        # delta = -sqrt(eps) / sqrt((1 - rho) + eps)
        params, _ = tiny_params()
        state = init_optimizer_state(params)
        ones = params.like(np.ones_like(params.flat))
        before = {k: v.copy() for k, v in params.tensors().items()}
        adadelta_update(params, ones, state, 0.95, 1e-6)
        expected_delta = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
        for name, tensor in params.tensors().items():
            np.testing.assert_allclose(tensor - before[name], expected_delta, rtol=1e-12)

    def test_equal_gradients_equal_updates(self):
        params, _ = tiny_params()
        state = init_optimizer_state(params)
        grads = params.like(np.full_like(params.flat, 0.37))
        before = {k: v.copy() for k, v in params.tensors().items()}
        adadelta_update(params, grads, state, 0.9, 1e-6)
        deltas = [np.unique(np.round(t - before[k], 15)) for k, t in params.tensors().items()]
        for delta in deltas:
            assert delta.size == 1
        assert len({d.item() for d in deltas for d in [d[0]]}) == 1

    def test_overfitting_single_pair_halves_loss_in_50_steps(self):
        params, _ = tiny_params(seed=7)
        state = init_optimizer_state(params)
        batch = [([4, 6, 5, EOS_ID], [4, 5, 6, EOS_ID])]
        initial = batch_loss(batch, params)
        for _ in range(50):
            adadelta_update(params, gradients(batch, params), state, 0.95, 1e-6)
        final = batch_loss(batch, params)
        assert final < 0.5 * initial


def whole_buffer_adadelta(flat, g, grad_sq, update_sq, rho, eps):
    """The update as one expression over the whole buffer, the reference
    for the blocked form."""
    grad_sq *= rho
    grad_sq += (1.0 - rho) * g * g
    delta = -np.sqrt(update_sq + eps) / np.sqrt(grad_sq + eps) * g
    update_sq *= rho
    update_sq += (1.0 - rho) * delta * delta
    flat += delta


class TestBlockedAdadelta:
    @pytest.mark.parametrize("size", [
        training.ADADELTA_BLOCK - 5, training.ADADELTA_BLOCK, 3 * training.ADADELTA_BLOCK + 7,
    ], ids=["below_one_block", "one_block", "three_blocks_and_a_tail"])
    def test_equals_the_whole_buffer_expression_to_the_bit(self, size):
        rng = np.random.default_rng(size)
        flat, g = rng.standard_normal(size), rng.standard_normal(size) * 1e-2
        grad_sq, update_sq = rng.random(size) * 1e-4, rng.random(size) * 1e-6
        g[::97] = 0.0
        want = [flat.copy(), g, grad_sq.copy(), update_sq.copy()]
        whole_buffer_adadelta(*want, 0.95, 1e-6)
        params, grads = SimpleNamespace(flat=flat), SimpleNamespace(flat=g)
        state = training.OptimizerState(grad_sq, update_sq)
        adadelta_update(params, grads, state, 0.95, 1e-6)
        for got, expected in zip((flat, g, grad_sq, update_sq), want):
            assert np.array_equal(got, expected)


def toy_split(n=12):
    items = []
    for i in range(n):
        source = f"file_{i} changed line_{i}".split()
        target = f"update file_{i} now".split()
        items.append(PreparedCommit(str(i), source, target))
    return DatasetSplit(train=items[: n - 4], valid=items[n - 4 :], test=[], seed=0)


def toy_hyper(**overrides):
    base = dict(
        embed_dim=4,
        hidden_dim=5,
        minibatch_size=4,
        validate_every=2,
        checkpoint_every=4,
        max_epochs=3,
        max_minibatches=100,
        patience=10,
        seed=11,
    )
    base.update(overrides)
    return Hyperparams(**base)


def build_vocabs(split):
    src = build_vocab([item.source for item in split.train])
    tgt = build_vocab([item.target for item in split.train])
    return src, tgt


class TestTrain:
    def test_empty_training_split_rejected(self):
        split = toy_split()
        split.train = []
        src, tgt = build_vocab([["a"]]), build_vocab([["a"]])
        with pytest.raises(ValueError):
            train(split, src, tgt, toy_hyper())

    def test_at_least_one_checkpoint(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        checkpoints = train(split, src, tgt, toy_hyper(), checkpoint_dir=tmp_path)
        assert len(checkpoints) >= 1
        assert sorted(tmp_path.glob("checkpoint_*.ckpt"))

    def test_patience_zero_stops_at_first_flat_validation(self):
        # an untrained tiny model scores BLEU 0 on validation, which does not
        # improve on the initial best of 0, so patience 0 stops immediately
        split = toy_split()
        src, tgt = build_vocabs(split)
        hyper = toy_hyper(patience=0, validate_every=1, max_epochs=50)
        checkpoints = train(split, src, tgt, hyper)
        assert checkpoints[-1].minibatch_index == 1

    def test_fixed_seed_reproduces_checkpoint_bytes(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        train(split, src, tgt, toy_hyper(), checkpoint_dir=dir_a)
        train(split, src, tgt, toy_hyper(), checkpoint_dir=dir_b)
        files_a = sorted(dir_a.glob("*.ckpt"))
        files_b = sorted(dir_b.glob("*.ckpt"))
        assert files_a and len(files_a) == len(files_b)
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_training_log_lines(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        log = tmp_path / "train.log"
        train(split, src, tgt, toy_hyper(), log_path=log)
        lines = log.read_text().splitlines()
        assert lines
        for line in lines:
            assert line.startswith("minibatch=")
            assert "loss=" in line and "val_bleu=" in line

    def test_resume_continues_at_recorded_index(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        hyper = toy_hyper(checkpoint_every=3, max_minibatches=3)
        first = train(split, src, tgt, hyper)
        assert first[-1].minibatch_index == 3

        hyper_more = toy_hyper(checkpoint_every=3, max_minibatches=6)
        resumed = train(split, src, tgt, hyper_more, resume_from=first[-1])
        assert resumed[-1].minibatch_index == 6

        # a straight 6-minibatch run must agree bit-for-bit with the resumed one
        straight = train(split, src, tgt, hyper_more)
        for name, tensor in straight[-1].params.tensors().items():
            np.testing.assert_array_equal(tensor, resumed[-1].params.tensors()[name])

    def test_resume_with_another_seed_is_refused(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        train(split, src, tgt, toy_hyper(max_minibatches=4), checkpoint_dir=tmp_path,
              log_path=tmp_path / "log")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="^cannot resume a run of seed 11 with seed 99: "):
            train(split, src, tgt, toy_hyper(max_minibatches=8, seed=99), checkpoint_dir=tmp_path,
                  log_path=tmp_path / "log",
                  resume_from=load_checkpoint(tmp_path / "checkpoint_00000004.ckpt"))
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("key, overrides, found, given", [
        ("embed_dim", dict(embed_dim=8, hidden_dim=8), 4, 8),
        ("hidden_dim", dict(hidden_dim=8), 5, 8),
        ("tgt_vocab_size", dict(), 14, 18),
    ])
    def test_resume_with_another_shape_is_refused(self, tmp_path, key, overrides, found, given):
        split = toy_split()
        src, tgt = build_vocabs(split)
        train(split, src, tgt, toy_hyper(max_minibatches=4), checkpoint_dir=tmp_path,
              log_path=tmp_path / "log")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        if key == "tgt_vocab_size":
            tgt = build_vocabs(toy_split(16))[1]
        with pytest.raises(ValueError, match=f"^cannot resume from a checkpoint whose {key} is "
                                             f"{found}, but this run's config and vocabularies "
                                             f"give {given}$"):
            train(split, src, tgt, toy_hyper(max_minibatches=8, **overrides),
                  checkpoint_dir=tmp_path, log_path=tmp_path / "log",
                  resume_from=load_checkpoint(tmp_path / "checkpoint_00000004.ckpt"))
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_resume_trains_the_checkpoint_in_place(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(train(split, src, tgt, toy_hyper(max_minibatches=3))[-1], path)
        ckpt = load_checkpoint(path)
        before = ckpt.params.flat.copy()
        resumed = train(split, src, tgt, toy_hyper(max_minibatches=6), resume_from=ckpt)[-1]
        assert resumed.params.flat is ckpt.params.flat
        assert resumed.optimizer_state is ckpt.optimizer_state
        assert resumed.minibatch_index == 6 and not np.array_equal(ckpt.params.flat, before)

    def test_resume_keeps_early_stopping_state(self, tmp_path):
        # targets every model can learn: validation BLEU climbs from 0 to 100,
        # then stalls until patience runs out; validations and checkpoints
        # fall on different minibatches, so the resume points cut loss windows
        items = [
            PreparedCommit(str(i), f"file_{i % 3} changed line".split(),
                           "fix the broken file path".split())
            for i in range(12)
        ]
        split = DatasetSplit(train=items[:8], valid=items[8:], test=[], seed=0)
        src, tgt = build_vocabs(split)
        hyper = toy_hyper(embed_dim=8, hidden_dim=8, validate_every=4, checkpoint_every=3,
                          patience=3, max_epochs=100)
        whole = tmp_path / "whole"
        straight = train(split, src, tgt, hyper, checkpoint_dir=whole, log_path=whole / "log")
        stop = straight[-1].minibatch_index
        assert stop < hyper.max_epochs * 2, "patience never triggered"
        log = (whole / "log").read_text()
        assert "val_bleu=0.0000" in log and "val_bleu=100.0000" in log

        for cut in range(1, stop):
            run = tmp_path / f"cut{cut}"
            first = train(split, src, tgt, dataclasses.replace(hyper, max_minibatches=cut),
                          checkpoint_dir=run, log_path=run / "log")
            resumed = train(split, src, tgt, hyper, checkpoint_dir=run, log_path=run / "log",
                            resume_from=load_checkpoint(run / f"checkpoint_{cut:08d}.ckpt"))
            assert first[-1].minibatch_index == cut
            assert resumed[-1].minibatch_index == stop, f"cut at {cut}"
            assert (run / "log").read_text() == log, f"cut at {cut}"
            for path in whole.glob("checkpoint_*.ckpt"):
                assert (run / path.name).read_bytes() == path.read_bytes(), f"cut at {cut}"

    def test_resume_after_a_crash_between_checkpoints_rewrites_the_log(self, tmp_path,
                                                                       monkeypatch):
        split = toy_split()
        src, tgt = build_vocabs(split)
        hyper = toy_hyper(validate_every=1, checkpoint_every=4, max_minibatches=6)
        whole = tmp_path / "whole"
        train(split, src, tgt, hyper, checkpoint_dir=whole, log_path=whole / "log")

        forward, calls = training.loss_forward, []

        def crashing(*args):
            calls.append(1)
            if len(calls) == 6:
                raise RuntimeError("killed")
            return forward(*args)

        run = tmp_path / "run"
        with monkeypatch.context() as patch:
            patch.setattr(training, "loss_forward", crashing)
            with pytest.raises(RuntimeError, match="killed"):
                train(split, src, tgt, hyper, checkpoint_dir=run, log_path=run / "log")
        assert "minibatch=5 " in (run / "log").read_text()
        train(split, src, tgt, hyper, checkpoint_dir=run, log_path=run / "log",
              resume_from=load_checkpoint(run / "checkpoint_00000004.ckpt"))
        assert (run / "log").read_bytes() == (whole / "log").read_bytes()
        assert sorted(p.name for p in run.iterdir()) == sorted(p.name for p in whole.iterdir())

    def test_resume_drops_a_torn_last_log_line(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        hyper = toy_hyper(validate_every=1, checkpoint_every=4, max_minibatches=6)
        whole = tmp_path / "whole"
        train(split, src, tgt, hyper, checkpoint_dir=whole, log_path=whole / "log")
        run = tmp_path / "run"
        train(split, src, tgt, dataclasses.replace(hyper, max_minibatches=4),
              checkpoint_dir=run, log_path=run / "log")
        with open(run / "log", "a", encoding="utf-8") as handle:
            handle.write("minibatch=5 loss=1.2")
        train(split, src, tgt, hyper, checkpoint_dir=run, log_path=run / "log",
              resume_from=load_checkpoint(run / "checkpoint_00000004.ckpt"))
        assert (run / "log").read_bytes() == (whole / "log").read_bytes()

    def test_log_on_disk_holds_every_line_before_each_checkpoint(self, tmp_path, monkeypatch):
        split = toy_split()
        src, tgt = build_vocabs(split)
        hyper = toy_hyper(validate_every=3, checkpoint_every=2, max_epochs=6, max_minibatches=12)
        log = tmp_path / "log"
        train(split, src, tgt, hyper, log_path=log)
        lines = log.read_text().splitlines(keepends=True)

        save, seen = training.save_checkpoint, []

        def checking(checkpoint, path):
            upto = [line for line in lines
                    if int(line.split()[0].removeprefix("minibatch=")) <= checkpoint.minibatch_index]
            assert log.read_text() == "".join(upto)
            seen.append(checkpoint.minibatch_index)
            save(checkpoint, path)

        monkeypatch.setattr(training, "save_checkpoint", checking)
        train(split, src, tgt, hyper, checkpoint_dir=tmp_path / "ckpt", log_path=log)
        assert seen == [2, 4, 6, 8, 10, 12]
        assert log.read_text() == "".join(lines)

    def test_validation_skipped_when_valid_empty(self):
        split = toy_split()
        split.valid = []
        src, tgt = build_vocabs(split)
        checkpoints = train(split, src, tgt, toy_hyper(patience=0, validate_every=1))
        # no validation events, so patience never triggers: run to max_epochs
        assert checkpoints[-1].minibatch_index == 6

    @pytest.mark.parametrize("stop", ["minibatch_limit", "early_stopping"])
    def test_resuming_a_finished_run_writes_nothing(self, tmp_path, stop):
        # patience 1 with validate_every 2: the untrained model scores BLEU 0
        # at minibatches 2 and 4, so it early-stops at 4 of 100
        split = toy_split()
        src, tgt = build_vocabs(split)
        if stop == "minibatch_limit":
            hyper = toy_hyper(max_minibatches=3)
        else:
            hyper = toy_hyper(patience=1, max_epochs=50)
        log = tmp_path / "train.log"
        first = train(split, src, tgt, hyper, checkpoint_dir=tmp_path, log_path=log)[-1]
        assert first.minibatch_index == (3 if stop == "minibatch_limit" else 4)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        last = tmp_path / f"checkpoint_{first.minibatch_index:08d}.ckpt"
        resumed = train(split, src, tgt, hyper, checkpoint_dir=tmp_path, log_path=log,
                        resume_from=load_checkpoint(last))[-1]
        assert resumed.minibatch_index == first.minibatch_index
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_checkpoint_every_minibatch_keeps_no_state_per_checkpoint(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)

        def traced_peak(checkpoint_every):
            hyper = toy_hyper(embed_dim=16, hidden_dim=32, checkpoint_every=checkpoint_every,
                              max_minibatches=6)
            tracemalloc.start()
            try:
                state = train(split, src, tgt, hyper,
                              checkpoint_dir=tmp_path / str(checkpoint_every))[-1]
                return tracemalloc.get_traced_memory()[1], state
            finally:
                tracemalloc.stop()

        traced_peak(6)  # the first run pays one-time costs, such as lazy imports
        every_peak, state = traced_peak(1)
        once_peak, _ = traced_peak(6)
        assert state.minibatch_index == 6 and len(list((tmp_path / "1").iterdir())) == 6
        model_state = 3 * state.params.flat.nbytes  # parameters and both accumulators
        assert every_peak - once_peak < model_state


def saved_checkpoint(tmp_path):
    params, _ = tiny_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(params, init_optimizer_state(params), 0, None), path)
    return path


def rewrite_header(path, edit):
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


class TestCheckpointIO:
    def test_roundtrip_preserves_loss(self, tmp_path):
        params, hyper = tiny_params()
        state = init_optimizer_state(params)
        batch = [([4, 6, EOS_ID], [5, 4, EOS_ID])]
        adadelta_update(params, gradients(batch, params), state, 0.9, 1e-6)
        checkpoint = Checkpoint(params, state, minibatch_index=1, validation_bleu=12.5, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.minibatch_index == 1
        assert loaded.validation_bleu == 12.5
        assert loaded.seed == 3
        assert batch_loss(batch, loaded.params) == batch_loss(batch, params)
        loaded_state = per_tensor(loaded.params, loaded.optimizer_state)
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(loaded.params.tensors()[name], tensor)
            np.testing.assert_array_equal(loaded_state[name][0], per_tensor(params, state)[name][0])

    def test_truncated_file_rejected(self, tmp_path):
        params, _ = tiny_params()
        checkpoint = Checkpoint(params, init_optimizer_state(params), 0, None)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        data = path.read_bytes()
        header, payload = data.split(b"\n", 1)
        current = f'"format_version": {training.CHECKPOINT_FORMAT_VERSION}'.encode()
        assert current in header
        header = header.replace(current, b'"format_version": 99')
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        # the layout before the GRU gates were fused: one tensor per gate
        params, _ = tiny_params()
        manifest = []
        for name, tensor in params.tensors().items():
            prefix, _, part = name.partition(".")
            if part:
                manifest += [{"name": f"{prefix}.{part}_{gate}",
                              "shape": list(tensor.shape[:-1]) + [params.hidden_dim]}
                             for gate in "zrh"]
            else:
                manifest.append({"name": name, "shape": list(tensor.shape)})
        payload_bytes = 8 * sum(int(np.prod(entry["shape"])) for entry in manifest)
        header = {
            "format_version": 1, "embed_dim": params.embed_dim,
            "hidden_dim": params.hidden_dim, "src_vocab_size": params.src_vocab_size,
            "tgt_vocab_size": params.tgt_vocab_size, "seed": 3, "minibatch_index": 0,
            "validation_bleu": None, "has_optimizer_state": False,
            "payload_bytes": payload_bytes, "tensors": manifest,
        }
        path = tmp_path / "v1.ckpt"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                         + bytes(payload_bytes))
        with pytest.raises(CheckpointError, match="version 1 "):
            load_checkpoint(path)

    def test_version_2_file_rejected(self, tmp_path):
        # the per-tensor layout: every parameter, then each one's accumulators
        params, _ = tiny_params()
        manifest = [{"name": name, "shape": list(t.shape)} for name, t in params.tensors().items()]
        manifest += [{"name": f"opt.{entry['name']}.{acc}", "shape": entry["shape"]}
                     for entry in list(manifest) for acc in ("grad_sq", "update_sq")]
        header = {
            "format_version": 2, "embed_dim": params.embed_dim,
            "hidden_dim": params.hidden_dim, "src_vocab_size": params.src_vocab_size,
            "tgt_vocab_size": params.tgt_vocab_size, "seed": 3, "minibatch_index": 0,
            "validation_bleu": None, "has_optimizer_state": True,
            "payload_bytes": 3 * params.flat.nbytes, "best_bleu": 0.0, "stall": 0,
            "window_loss_sum": 0.0, "window_loss_count": 0, "tensors": manifest,
        }
        path = tmp_path / "v2.ckpt"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                         + bytes(header["payload_bytes"]))
        for params_only in (False, True):
            with pytest.raises(CheckpointError, match="version 2 ") as info:
                load_checkpoint(path, params_only=params_only)
            assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "key", ["payload_bytes", "tensors", "embed_dim", "hidden_dim",
                "src_vocab_size", "tgt_vocab_size"],
    )
    def test_missing_header_key_rejected(self, tmp_path, key):
        path = saved_checkpoint(tmp_path)
        rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and repr(key) in str(info.value)

    @pytest.mark.parametrize(
        "key, tensor",
        [("embed_dim", "src_emb"), ("hidden_dim", "enc_fwd.w"),
         ("src_vocab_size", "src_emb"), ("tgt_vocab_size", "tgt_emb")],
    )
    def test_manifest_disagreeing_with_dimensions_rejected(self, tmp_path, key, tensor):
        path = saved_checkpoint(tmp_path)
        rewrite_header(path, lambda header: header.update({key: header[key] + 1}))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert str(path) in message and repr(tensor) in message and "shape" in message

    @pytest.mark.parametrize("key, value", [
        ("best_bleu", True), ("validation_bleu", False), ("window_loss_sum", True),
    ])
    def test_bool_in_a_number_key_rejected(self, tmp_path, key, value):
        path = saved_checkpoint(tmp_path)
        rewrite_header(path, lambda header: header.update({key: value}))
        with pytest.raises(CheckpointError, match=f"header: key {key!r} must be float") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key, value", [
        ("best_bleu", math.nan), ("validation_bleu", math.inf), ("window_loss_sum", -math.inf),
    ])
    def test_non_finite_number_key_rejected(self, tmp_path, key, value):
        path = saved_checkpoint(tmp_path)
        rewrite_header(path, lambda header: header.update({key: value}))
        with pytest.raises(CheckpointError, match=f"header: key {key!r} must be float") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_int_beyond_float_range_rejected(self, tmp_path):
        # valid JSON, but the loss sum it resumes would overflow
        path = saved_checkpoint(tmp_path)
        rewrite_header(path, lambda header: header.update(window_loss_sum=10**400))
        with pytest.raises(CheckpointError, match="header: key 'window_loss_sum' must be float"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
        ("embed_dim", -1, "embed_dim must be >= 1, got -1"),
        ("minibatch_index", -5, "minibatch_index must be >= 0, got -5"),
        ("stall", -1, "stall must be >= 0, got -1"),
        ("best_bleu", 100.5, "best_bleu must be >= 0 and <= 100, got 100.5"),
        ("validation_bleu", -0.5, "validation_bleu must be >= 0 and <= 100, got -0.5"),
        ("window_loss_sum", -1.0, "window_loss_sum must be >= 0, got -1.0"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ], ids=["hidden_dim", "embed_dim", "minibatch_index", "stall", "best_bleu", "validation_bleu",
            "window_loss_sum", "seed"])
    def test_out_of_range_header_key_rejected(self, tmp_path, key, value, message):
        # the manifest and the payload agree with the value, so only its range refuses it
        header, _ = saved_checkpoint(tmp_path).read_bytes().split(b"\n", 1)
        header = {**json.loads(header), key: value, "has_optimizer_state": False}
        shapes = param_shapes(*(header[k] for k in training._DIM_KEYS))
        header["tensors"] = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]
        header["payload_bytes"] = 8 * sum(math.prod(shape) for shape in shapes.values())
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(header["payload_bytes"]))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: header: {message}$"):
            load_checkpoint(path)

    def test_payload_length_disagreeing_with_manifest_rejected(self, tmp_path):
        # a consistently shortened file: payload_bytes matches the bytes present
        path = saved_checkpoint(tmp_path)
        rewrite_header(path, lambda header: header.update(payload_bytes=header["payload_bytes"] - 8))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="'payload_bytes'"):
            load_checkpoint(path)

    def test_failed_write_leaves_no_checkpoint(self, tmp_path, monkeypatch):
        params, _ = tiny_params()
        checkpoint = Checkpoint(params, init_optimizer_state(params), 4, None)
        kept = tmp_path / "checkpoint_00000004.ckpt"
        save_checkpoint(checkpoint, kept)
        good = kept.read_bytes()

        class FailingFile:
            """Passes the header and the first tensor through, then fails."""

            def __init__(self, handle):
                self.handle = handle
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("disk full")
                return self.handle.write(data)

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        monkeypatch.setattr(corpus, "open", lambda *args: FailingFile(open(*args)),
                            raising=False)
        checkpoint.minibatch_index = 8
        for name in (kept.name, "checkpoint_00000008.ckpt"):
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(checkpoint, tmp_path / name)
        assert [p.name for p in tmp_path.iterdir()] == [kept.name]
        assert kept.read_bytes() == good

    @pytest.mark.parametrize("key", training._DIM_KEYS)
    def test_dims_mismatch_rejected(self, tmp_path, key):
        params, _ = tiny_params(src_vocab=10, tgt_vocab=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(Checkpoint(params, None, 0, None), path)
        dims = dict(zip(training._DIM_KEYS, (4, 5, 10, 9)))
        assert load_checkpoint(path, tuple(dims.values())).params.flat.size == params.flat.size
        dims[key] += 1
        with pytest.raises(CheckpointError, match=(
                f"^{re.escape(str(path))}: {key} is {dims[key] - 1}, but this run's config "
                f"and vocabularies give {dims[key]}$")):
            load_checkpoint(path, tuple(dims.values()))

    def test_the_first_differing_dim_is_named(self, tmp_path):
        path = saved_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match=r": hidden_dim is 5, .* give 6$"):
            load_checkpoint(path, (4, 6, 11, 10))

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"\x00\x01\x02 not a checkpoint\n more bytes")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestNonFiniteState:
    def test_nan_in_resumed_checkpoint_names_minibatch_and_tensor(self, tmp_path):
        split = toy_split()
        src, tgt = build_vocabs(split)
        train(split, src, tgt, toy_hyper(max_minibatches=4), checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_00000004.ckpt"
        checkpoint = load_checkpoint(path)
        checkpoint.params.att_v[2] = np.nan
        save_checkpoint(checkpoint, path)
        with pytest.raises(FloatingPointError, match=r"after minibatch 4: .* parameter att_v$"):
            train(split, src, tgt, toy_hyper(max_minibatches=8),
                  resume_from=load_checkpoint(path))

    def test_nan_gradient_names_minibatch_and_tensor(self, monkeypatch):
        split = toy_split()
        src, tgt = build_vocabs(split)
        backward, calls = training.loss_backward, []

        def poisoned(params, cache):
            grads = backward(params, cache)
            calls.append(1)
            if len(calls) == 3:
                grads.dec.b[0] = np.nan
            return grads

        monkeypatch.setattr(training, "loss_backward", poisoned)
        with pytest.raises(FloatingPointError, match=r"after minibatch 3: .* parameter dec\.b$"):
            train(split, src, tgt, toy_hyper())


checkpoint_dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6),
                            st.integers(1, 6))


class TestCheckpointRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(dims=checkpoint_dims, with_state=st.booleans(), data=st.data())
    def test_bits_round_trip_and_every_cut_fails(self, dims, with_state, data):
        embed, hidden, src_vocab, tgt_vocab = dims
        params = init_params(Hyperparams(embed_dim=embed, hidden_dim=hidden), src_vocab, tgt_vocab)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params.flat[:] = rng.standard_normal(params.flat.size) * 10.0 ** rng.integers(
            -300, 300, params.flat.size)
        state = None
        if with_state:
            state = init_optimizer_state(params)
            state.grad_sq[:] = rng.random(params.flat.size)
            state.update_sq[:] = rng.random(params.flat.size)
        checkpoint = Checkpoint(params, state, data.draw(st.integers(0, 10**6), label="index"),
                                data.draw(st.none() | st.floats(0, 100), label="bleu"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(checkpoint, path)
            full = load_checkpoint(path)
            light = load_checkpoint(path, params_only=True)
            for loaded in (full, light):
                assert loaded.params.flat.tobytes() == params.flat.tobytes()
                assert (loaded.minibatch_index, loaded.validation_bleu) == (
                    checkpoint.minibatch_index, checkpoint.validation_bleu)
            assert light.optimizer_state is None
            if with_state:
                assert full.optimizer_state.grad_sq.tobytes() == state.grad_sq.tobytes()
                assert full.optimizer_state.update_sq.tobytes() == state.update_sq.tobytes()
            else:
                assert full.optimizer_state is None

            blob = path.read_bytes()
            block = 8 * params.flat.size
            start = blob.index(b"\n") + 1
            cuts = {0, start - 1, start, start + block - 1, start + block, start + 2 * block,
                    len(blob) - 1, data.draw(st.integers(0, len(blob) - 1), label="cut")}
            for cut in sorted(c for c in cuts if 0 <= c < len(blob)):
                path.write_bytes(blob[:cut])
                for params_only in (False, True):
                    with pytest.raises(CheckpointError):
                        load_checkpoint(path, params_only=params_only)
