"""Training loop, Adadelta optimizer, and checkpoint serialization.

Training reshuffles the pairs every epoch with a deterministically derived
per-epoch RNG, validates by greedy-decode corpus BLEU, saves checkpoints
on a fixed minibatch schedule, and early-stops when validation BLEU stops
improving.  A Checkpoint is the whole training state, and so is every
checkpoint file: train updates one in place and writes it as it stands.
A file is a versioned binary container: one JSON header line (dims, vocab
sizes, seed and the early-stopping state) followed by the raw float64
parameter buffer and the two Adadelta accumulators in the same layout, so
identical runs produce identical bytes.  The header carries the best
validation BLEU, the stall count and the loss window not yet logged, so a
resumed run logs, checkpoints and stops exactly as an uninterrupted one.
Checkpoints are written through corpus.atomic_write, and loading checks
every header key and the payload length the dims give before reading the
payload, and every value it reads.
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
from ..corpus import (DatasetSplit, Refusal, Schema, Vocabulary, atomic_write, field_types,
                      read_json_object)
from .decoding import beam_search
from .model import (
    DIM_KEYS,
    Array,
    Hyperparams,
    ModelParams,
    empty_aligned,
    init_params,
    loss_backward,
    loss_forward,
    model_dims,
    pad_batch,
    param_count,
    source_ids,
)

CHECKPOINT_FORMAT_VERSION = 6

ADADELTA_BLOCK = 1 << 15  # coordinates per block of adadelta_update, 256 KB each
ADADELTA_RHO, ADADELTA_EPS = 0.95, 1e-6  # ADADELTA's decay and epsilon (Zeiler, arXiv 1212.5701)
HEADER_LIMIT = 1 << 20  # bytes a checkpoint header line may take; a written one takes ~300


@dataclass
class OptimizerState:
    """Adadelta's running averages E[g^2] and E[dx^2], each (N,) in the
    layout of ModelParams.flat."""

    grad_sq: Array
    update_sq: Array


def init_optimizer_state(params: ModelParams) -> OptimizerState:
    return OptimizerState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adadelta_update(
    params: ModelParams,
    grads: ModelParams,
    optimizer_state: OptimizerState,
) -> None:
    """One Adadelta step, in place, on the whole parameter buffer.

    Per coordinate, with rho = ADADELTA_RHO and eps = ADADELTA_EPS:
    E[g^2] <- rho E[g^2] + (1-rho) g^2, the update is
    -(sqrt(E[dx^2]+eps) / sqrt(E[g^2]+eps)) g, and E[dx^2] accumulates the
    squared update with the same decay.  The buffer is updated in blocks of
    ADADELTA_BLOCK coordinates, so each temporary stays in cache.
    """
    for lo in range(0, params.flat.size, ADADELTA_BLOCK):
        block = slice(lo, lo + ADADELTA_BLOCK)
        g, acc_grad_sq, acc_update_sq = (
            a[block] for a in (grads.flat, optimizer_state.grad_sq, optimizer_state.update_sq))
        acc_grad_sq *= ADADELTA_RHO
        acc_grad_sq += (1.0 - ADADELTA_RHO) * g * g
        delta = -np.sqrt(acc_update_sq + ADADELTA_EPS) / np.sqrt(acc_grad_sq + ADADELTA_EPS) * g
        acc_update_sq *= ADADELTA_RHO
        acc_update_sq += (1.0 - ADADELTA_RHO) * delta * delta
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
# then the dims, which fix the payload's layout, and "format_version".
_STATE_KEYS = {key: kind for key, kind in field_types(Checkpoint).items()
               if key not in ("params", "optimizer_state")}
_HEADER_KEYS = Schema({**_STATE_KEYS, **dict.fromkeys(DIM_KEYS, Annotated[int, ">= 1"])})
RUN_KEYS = (*DIM_KEYS, "seed")  # a model's shape and the seed of its split


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint through atomic_write, so path never holds a
    partial file; one without optimizer state is a ValueError, raised
    before anything is written.

    The payload is the parameter buffer, then the optimizer state's two
    accumulators, each written straight from its array."""
    params, state = checkpoint.params, checkpoint.optimizer_state
    if state is None:
        raise ValueError("cannot save a checkpoint without optimizer state")
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        **{key: getattr(checkpoint, key) for key in _STATE_KEYS},
        **dict(zip(DIM_KEYS, params.dims)),
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    atomic_write(path, [header_line, params.flat.data, state.grad_sq.data, state.update_sq.data])


def load_checkpoint(
    path: str | Path,
    run: tuple[int, ...] | None = None,
    out: Array | None = None,
) -> Checkpoint:
    """Load a checkpoint, verifying version, header, payload length and
    that every value read is finite.

    The header is one line of at most HEADER_LIMIT bytes.  The payload is
    three blocks of N = param_count(*dims) float64 values, the parameters
    and the two accumulators, and must be exactly that long.  run, if given,
    is the caller's values of the leading RUN_KEYS, its model (see
    model_dims) and seed; the first key the file differs on is refused
    naming both values.  Any fault of the file is a Refusal of path.  Every
    array is a view into one writable buffer read from the file, aligned by
    empty_aligned.  With out, a writable C-contiguous (N,) float64 array such
    as a row of a stacked ensemble's (else a ValueError), only the parameter
    block, which comes first in the payload, is read, into out.
    """
    with open(path, "rb") as handle:
        header_line = handle.readline(HEADER_LIMIT)
        if len(header_line) == HEADER_LIMIT and not header_line.endswith(b"\n"):
            raise Refusal(path, f"header: no line end in the first {HEADER_LIMIT} bytes")
        header = read_json_object(header_line, _HEADER_KEYS, path, CHECKPOINT_FORMAT_VERSION,
                                  "header")
        found = tuple(header[key] for key in DIM_KEYS)
        for key, have, want in zip(RUN_KEYS, (*found, header["seed"]), run or ()):
            if have != want:
                raise Refusal(path, f"{key} is {have}, but this run's config and vocabularies "
                                    f"give {want}")
        size = param_count(*found)
        if out is not None and not (out.dtype == np.float64 and out.shape == (size,)
                                    and out.flags.c_contiguous and out.flags.writeable):
            raise ValueError(f"{path}: out must be a writable C-contiguous float64 array of shape "
                             f"({size},), not {out.dtype} of shape {out.shape}, C-contiguous "
                             f"{out.flags.c_contiguous}, writable {out.flags.writeable}")
        present = os.fstat(handle.fileno()).st_size - len(header_line)
        expected = 8 * size * 3
        if present != expected:
            what = "truncated payload" if present < expected else "payload too long"
            raise Refusal(path, f"{what} ({present} bytes, {expected} by the header)")
        blocks = 3 if out is None else 1
        payload = empty_aligned(size * blocks) if out is None else out
        if handle.readinto(payload) != payload.nbytes:
            raise Refusal(path, "truncated payload")
    flat, *state = (payload[size * k : size * (k + 1)] for k in range(blocks))
    params = ModelParams.from_flat(flat, *found)
    for block, where in zip((params, *map(params.like, state)), ("", "grad_sq: ", "update_sq: ")):
        if name := block.non_finite():  # no training step writes one, so the file is damaged
            raise Refusal(path, f"{where}non-finite values in parameter {name}")
    return Checkpoint(
        params=params,
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
    resume: bool = False,
) -> list[Checkpoint]:
    """Minibatch Adadelta training; returns [state], the final training state.

    The state is one Checkpoint.  With resume, it is the last checkpoint in
    checkpoint_dir (see checkpoint_paths), which load_checkpoint reads
    against the shape and seed (which orders every epoch) that hyper and the
    vocabularies give, so a file it refuses is a Refusal of that file, raised
    before anything is written.  Without resume, or with no checkpoint to
    resume from, the state is fresh, and the checkpoints listed there are
    removed first, as the log is truncated.  Each source is read as
    source_ids builds it.  The state is updated in place, its buffers with
    it, and written every hyper.checkpoint_every minibatches and when
    training stops, as checkpoint_<minibatch index, 8 digits>.ckpt in
    checkpoint_dir.  Validation runs every hyper.validate_every minibatches
    on greedy decodes of the validation split (skipped if it is empty);
    training stops after hyper.patience consecutive non-improving
    validations, or at the epoch/minibatch limits.  Before each checkpoint
    the log is flushed to disk.  On resume, the log lines past the
    checkpoint are dropped first, so the log ends as an unbroken run's does.
    Resuming a run that has already stopped trains and writes nothing.
    """
    if not split.train:
        raise ValueError("training split is empty")

    train_pairs = [(source_ids(src_vocab, item.source, hyper),
                    tgt_vocab.encode(item.target, add_eos=True)) for item in split.train]
    valid_pairs = [(source_ids(src_vocab, item.source, hyper), list(item.target))
                   for item in split.valid]

    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    existing = checkpoint_paths(ckpt_dir) if ckpt_dir is not None else []
    resumed = resume and bool(existing)
    if resumed:
        run = (*model_dims(hyper, len(src_vocab), len(tgt_vocab)), hyper.seed)
        state = load_checkpoint(existing[-1], run)
    else:
        params = init_params(hyper, len(src_vocab), len(tgt_vocab))
        state = Checkpoint(params, init_optimizer_state(params), 0, None, seed=hyper.seed)
        for path in existing:  # a fresh run's set holds only its own
            path.unlink()
    log_handle = None
    if log_path is not None:
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
        if resumed:
            _truncate_log(Path(log_path), state.minibatch_index)
        # append only when resuming, so a rerun reproduces identical artifacts
        log_handle = open(log_path, "a" if resumed else "w", encoding="utf-8")

    n, size = len(train_pairs), hyper.minibatch_size
    batches_per_epoch = (n + size - 1) // size
    limit = min(hyper.max_epochs * batches_per_epoch, hyper.max_minibatches)
    order: list[int] = []

    try:
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
            adadelta_update(state.params, grads, state.optimizer_state)
            state.minibatch_index = index + 1
            if name := state.params.non_finite():  # name the minibatch and the first such tensor
                raise FloatingPointError(f"after minibatch {state.minibatch_index}: non-finite "
                                         f"values in parameter {name}")
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
