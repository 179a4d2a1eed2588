"""Training loop, Adadelta optimizer, and checkpoint serialization.

Training reshuffles the pairs every epoch with a deterministically derived
per-epoch RNG, validates by greedy-decode corpus BLEU, saves checkpoints
on a fixed minibatch schedule, and early-stops when validation BLEU stops
improving.  A Checkpoint is the whole training state: train updates one
in place and writes it as it stands.  Checkpoints are a versioned binary container: one JSON header
line (dims, vocab sizes, seed, tensor manifest, payload length, and the
early-stopping state) followed by the raw float64 parameter buffer and, for
training state, the two Adadelta accumulators in the same layout, so
identical runs produce identical bytes.  The header carries the best validation BLEU,
the stall count and the loss window not yet logged, so a resumed run logs,
checkpoints and stops exactly as an uninterrupted one.  Checkpoints are
written through corpus.atomic_write, and loading checks every header key
and tensor shape before reading the payload.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .. import bleu
from ..corpus import (DatasetSplit, Schema, Vocabulary, atomic_write, field_types,
                      read_json_object)
from .decoding import beam_search
from .model import (
    Array,
    Hyperparams,
    ModelParams,
    init_params,
    loss_backward,
    loss_forward,
    pad_batch,
    param_count,
    param_shapes,
    source_ids,
)

CHECKPOINT_FORMAT_VERSION = 3

ADADELTA_BLOCK = 1 << 15  # coordinates per block of adadelta_update, 256 KB each


@dataclass
class OptimizerState:
    """Adadelta's running averages E[g^2] and E[dx^2], each (N,) in the
    layout of ModelParams.flat."""

    grad_sq: Array
    update_sq: Array


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or incompatible checkpoint file."""


def init_optimizer_state(params: ModelParams) -> OptimizerState:
    return OptimizerState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adadelta_update(
    params: ModelParams,
    grads: ModelParams,
    optimizer_state: OptimizerState,
    rho: float,
    eps: float,
) -> None:
    """One Adadelta step, in place, on the whole parameter buffer.

    Per coordinate: E[g^2] <- rho E[g^2] + (1-rho) g^2, the update is
    -(sqrt(E[dx^2]+eps) / sqrt(E[g^2]+eps)) g, and E[dx^2] accumulates the
    squared update with the same decay.  The buffer is updated in blocks of
    ADADELTA_BLOCK coordinates, so each temporary stays in cache.
    """
    for lo in range(0, params.flat.size, ADADELTA_BLOCK):
        block = slice(lo, lo + ADADELTA_BLOCK)
        g, acc_grad_sq, acc_update_sq = (
            a[block] for a in (grads.flat, optimizer_state.grad_sq, optimizer_state.update_sq))
        acc_grad_sq *= rho
        acc_grad_sq += (1.0 - rho) * g * g
        delta = -np.sqrt(acc_update_sq + eps) / np.sqrt(acc_grad_sq + eps) * g
        acc_update_sq *= rho
        acc_update_sq += (1.0 - rho) * delta * delta
        params.flat[block] += delta


@dataclass
class Checkpoint:
    """The training state: what a resumed run needs to train, log,
    checkpoint and stop exactly as an unbroken one."""

    params: ModelParams
    optimizer_state: OptimizerState | None
    minibatch_index: Annotated[int, ">= 0"]
    validation_bleu: Annotated[float | None, ">= 0", "<= 100"]
    seed: Annotated[int, ">= 0"] = 0
    best_bleu: Annotated[float, ">= 0", "<= 100"] = 0.0
    stall: Annotated[int, ">= 0"] = 0
    # the loss of the minibatches since the last validation, not yet logged
    window_loss_sum: Annotated[float, ">= 0"] = 0.0
    window_loss_count: Annotated[int, ">= 0"] = 0


# The header is one JSON object: the Checkpoint fields but the buffers,
# then the keys that describe the payload, and "format_version".
_STATE_KEYS = {key: kind for key, kind in field_types(Checkpoint).items()
               if key not in ("params", "optimizer_state")}
_DIM_KEYS = ("embed_dim", "hidden_dim", "src_vocab_size", "tgt_vocab_size")
_PAYLOAD_KEYS = {**dict.fromkeys(_DIM_KEYS, Annotated[int, ">= 1"]), "has_optimizer_state": bool,
                 "payload_bytes": int, "tensors": list[dict]}
_HEADER_KEYS = Schema({**_STATE_KEYS, **_PAYLOAD_KEYS})


def _dims_problem(found: tuple[int, ...], expected: tuple[int, ...]) -> str | None:
    """The first of _DIM_KEYS on which found differs from the run's
    expected dims, with both values; or None."""
    return next((f"{key} is {have}, but this run's config and vocabularies give {want}"
                 for key, have, want in zip(_DIM_KEYS, found, expected) if have != want), None)


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint through atomic_write, so path never holds a
    partial file.

    The payload is the parameter buffer, then the optimizer state's two
    accumulators, each written straight from its array."""
    params = checkpoint.params
    blocks = [params.flat]
    state = checkpoint.optimizer_state
    if state is not None:
        blocks += [state.grad_sq, state.update_sq]
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        **{key: getattr(checkpoint, key) for key in _STATE_KEYS},
        **{key: getattr(params, key) for key in _DIM_KEYS},
        "has_optimizer_state": state is not None,
        "payload_bytes": sum(block.nbytes for block in blocks),
        "tensors": [
            {"name": name, "shape": list(tensor.shape)}
            for name, tensor in params.tensors().items()
        ],
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    atomic_write(path, [header_line, *(block.data for block in blocks)])


def _check_header(path: str | Path, header: dict) -> int:
    """Raise CheckpointError for a manifest that disagrees with the
    dimensions, vocabulary sizes, layout order or payload length; return N,
    the number of parameters."""
    expected = param_shapes(*(header[key] for key in _DIM_KEYS))
    manifest = header["tensors"]
    if len(manifest) != len(expected):
        raise CheckpointError(f"{path}: manifest lists {len(manifest)} tensors, not {len(expected)}")
    for index, (entry, (name, shape)) in enumerate(zip(manifest, expected.items())):
        if entry.get("name") != name:
            raise CheckpointError(f"{path}: manifest entry {index} is not {name!r}; the "
                                  f"payload must start with the parameters in layout order")
        if entry.get("shape") != list(shape):
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {entry.get('shape')}, expected "
                f"{list(shape)} from embed_dim, hidden_dim and the vocab sizes"
            )
    size = param_count(*(header[key] for key in _DIM_KEYS))
    if header["payload_bytes"] != 8 * size * (3 if header["has_optimizer_state"] else 1):
        raise CheckpointError(f"{path}: header key 'payload_bytes' disagrees with the manifest")
    return size


def load_checkpoint(
    path: str | Path,
    dims: tuple[int, int, int, int] | None = None,
    params_only: bool = False,
    out: Array | None = None,
) -> Checkpoint:
    """Load a checkpoint, verifying version, header, payload length and shape.

    dims, if given, is the caller's model in _DIM_KEYS order; the first key
    the file differs on is a CheckpointError naming both values.  With
    params_only, reads the parameter buffer, which comes first in the
    payload, and not the optimizer state (optimizer_state is then None).
    Every array is a view into one writable buffer read from the file: out,
    if given, a contiguous (N,) float64 buffer such as a row of a stacked
    ensemble's, which implies params_only.
    """
    with open(path, "rb") as handle:
        header_line = handle.readline()
        header = read_json_object(header_line, _HEADER_KEYS, f"{path}: header", CheckpointError,
                                  CHECKPOINT_FORMAT_VERSION)
        size = _check_header(path, header)
        problem = _dims_problem(tuple(header[key] for key in _DIM_KEYS), dims or ())
        if problem is not None:
            raise CheckpointError(f"{path}: {problem}")
        if out is not None and out.shape != (size,):
            raise ValueError(f"{path}: holds {size} parameters, not {out.size}")
        present = os.fstat(handle.fileno()).st_size - len(header_line)
        if present != header["payload_bytes"]:
            raise CheckpointError(
                f"{path}: truncated payload ({present} of {header['payload_bytes']} bytes)"
            )
        blocks = 3 if header["has_optimizer_state"] and not params_only and out is None else 1
        payload = np.empty(size * blocks, dtype=np.float64) if out is None else out
        if handle.readinto(payload) != payload.nbytes:
            raise CheckpointError(f"{path}: truncated payload")
    flat, *state = (payload[size * k : size * (k + 1)] for k in range(blocks))
    return Checkpoint(
        params=ModelParams.from_flat(flat, *(header[key] for key in _DIM_KEYS)),
        optimizer_state=OptimizerState(*state) if state else None,
        **{key: header[key] for key in _STATE_KEYS},
    )


# one validation line of the training log
_LOG_LINE_RE = re.compile(rb"minibatch=(\d+) [^\n]*\n")


def _truncate_log(path: Path, minibatch_index: int) -> None:
    """Cut a training log after its last whole line at or before
    minibatch_index, the checkpoint a run resumes from; rewrite it only if
    anything follows that line."""
    if not path.is_file():
        return
    data = path.read_bytes()
    end = 0
    while (line := _LOG_LINE_RE.match(data, end)) and int(line[1]) <= minibatch_index:
        end = line.end()
    if end < len(data):
        atomic_write(path, [data[:end]])


def _epoch_order(seed: int, epoch: int, n: int) -> list[int]:
    # Derived, not chained: lets a resumed run regenerate any epoch's order.
    order = list(range(n))
    random.Random(seed * 1_000_003 + epoch).shuffle(order)
    return order


def _validation_bleu(
    params: ModelParams,
    valid_pairs: list[tuple[list[int], list[str]]],
    tgt_vocab: Vocabulary,
    max_target_len: int,
) -> float:
    generated = beam_search([params], [s for s, _ in valid_pairs], 1, max_target_len)
    pairs = [(tgt_vocab.decode(ids), ref) for ids, (_, ref) in zip(generated, valid_pairs)]
    return bleu.corpus_bleu(pairs).bleu


def checkpoint_paths(directory: str | Path) -> list[Path]:
    """The checkpoints train wrote to directory, oldest first; none if the
    directory does not exist."""
    return sorted(Path(directory).glob("checkpoint_*.ckpt"))


def train(
    split: DatasetSplit,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    hyper: Hyperparams,
    checkpoint_dir: str | Path | None = None,
    log_path: str | Path | None = None,
    resume_from: Checkpoint | None = None,
) -> list[Checkpoint]:
    """Minibatch Adadelta training; returns [state], the final training state.

    The state is one Checkpoint, resume_from if given, else a fresh one;
    resume_from must have the shape hyper and the vocabularies give (see
    _dims_problem) and carry hyper.seed, which orders every epoch, or the
    run is refused with a ValueError before anything is written.  Each
    source is read as source_ids builds it.  The state is updated in place, its
    buffers with it, and written every hyper.checkpoint_every minibatches
    and when training stops, as checkpoint_<minibatch index, 8 digits>.ckpt
    in checkpoint_dir; a run that does not resume first removes the
    checkpoints listed there (see checkpoint_paths), as it truncates the
    log.  Validation runs every hyper.validate_every minibatches on greedy
    decodes of the validation split (skipped if it is empty); training stops after
    hyper.patience consecutive non-improving validations, or at the
    epoch/minibatch limits.  Before each checkpoint the log is flushed to
    disk.  On resume, the log lines past the checkpoint are dropped first,
    so the log ends as an unbroken run's does.  Resuming a run that has
    already stopped trains and writes nothing.
    """
    if not split.train:
        raise ValueError("training split is empty")

    train_pairs = [(source_ids(src_vocab, item.source, hyper),
                    tgt_vocab.encode(item.target, add_eos=True)) for item in split.train]
    valid_pairs = [(source_ids(src_vocab, item.source, hyper), list(item.target))
                   for item in split.valid]

    if resume_from is None:
        params = init_params(hyper, len(src_vocab), len(tgt_vocab))
        state = Checkpoint(params, init_optimizer_state(params), 0, None, seed=hyper.seed)
    elif resume_from.optimizer_state is None:
        raise ValueError("cannot resume from a checkpoint without optimizer state")
    elif problem := _dims_problem(
            tuple(getattr(resume_from.params, key) for key in _DIM_KEYS),
            (hyper.embed_dim, hyper.hidden_dim, len(src_vocab), len(tgt_vocab))):
        raise ValueError(f"cannot resume from a checkpoint whose {problem}")
    elif resume_from.seed != hyper.seed:
        raise ValueError(f"cannot resume a run of seed {resume_from.seed} with seed {hyper.seed}: "
                         f"its epochs would be shuffled in another order")
    else:
        state = resume_from

    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None and resume_from is None:
        for path in checkpoint_paths(ckpt_dir):  # a fresh run's set holds only its own
            path.unlink()
    log_handle = None
    if log_path is not None:
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
        if resume_from is not None:
            _truncate_log(Path(log_path), state.minibatch_index)
        # append only when resuming, so a rerun reproduces identical artifacts
        log_handle = open(log_path, "a" if resume_from is not None else "w", encoding="utf-8")

    def check_finite() -> None:
        try:
            state.params.assert_finite()
        except FloatingPointError as exc:
            raise FloatingPointError(f"after minibatch {state.minibatch_index}: {exc}") from exc

    n, size = len(train_pairs), hyper.minibatch_size
    batches_per_epoch = (n + size - 1) // size
    limit = min(hyper.max_epochs * batches_per_epoch, hyper.max_minibatches)
    order: list[int] = []

    try:
        check_finite()
        for index in range(state.minibatch_index, limit):
            if state.stall > hyper.patience:
                break
            epoch, b = divmod(index, batches_per_epoch)
            if b == 0 or not order:
                order = _epoch_order(state.seed, epoch, n)
            batch = [train_pairs[i] for i in order[b * size : (b + 1) * size]]
            src, src_mask, tgt, tgt_mask = pad_batch([s for s, _ in batch], [t for _, t in batch])
            loss, cache = loss_forward(state.params, src, src_mask, tgt, tgt_mask)
            grads = loss_backward(state.params, cache)
            del cache  # free the activations before the update's buffers
            adadelta_update(state.params, grads, state.optimizer_state,
                            hyper.adadelta_rho, hyper.adadelta_eps)
            state.minibatch_index = index + 1
            check_finite()
            state.window_loss_sum += loss
            state.window_loss_count += 1

            if valid_pairs and state.minibatch_index % hyper.validate_every == 0:
                score = _validation_bleu(state.params, valid_pairs, tgt_vocab, hyper.max_target_len)
                state.validation_bleu = score
                if log_handle is not None:
                    mean_loss = state.window_loss_sum / state.window_loss_count
                    log_handle.write(
                        f"minibatch={state.minibatch_index} loss={mean_loss:.6f} "
                        f"val_bleu={score:.4f}\n"
                    )
                state.window_loss_sum, state.window_loss_count = 0.0, 0
                if score > state.best_bleu:
                    state.best_bleu, state.stall = score, 0
                else:
                    state.stall += 1

            last = state.minibatch_index == limit or state.stall > hyper.patience
            if ckpt_dir is not None and (last or state.minibatch_index % hyper.checkpoint_every == 0):
                if log_handle is not None:  # the log must hold what the checkpoint does
                    log_handle.flush()
                    os.fsync(log_handle.fileno())
                save_checkpoint(state, ckpt_dir / f"checkpoint_{state.minibatch_index:08d}.ckpt")
    finally:
        if log_handle is not None:
            log_handle.close()

    return [state]
