"""Attentional encoder-decoder: model, training, and decoding."""

from .decoding import beam_search, ensemble_decode, greedy_decode
from .model import (
    Hyperparams,
    ModelParams,
    batch_loss,
    decoder_step,
    encode,
    gradients,
    init_decoder_state,
    init_params,
)
from .training import (
    Checkpoint,
    CheckpointError,
    adadelta_update,
    checkpoint_paths,
    init_optimizer_state,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "Hyperparams",
    "ModelParams",
    "Checkpoint",
    "CheckpointError",
    "adadelta_update",
    "batch_loss",
    "beam_search",
    "checkpoint_paths",
    "decoder_step",
    "encode",
    "ensemble_decode",
    "gradients",
    "greedy_decode",
    "init_decoder_state",
    "init_optimizer_state",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "train",
]
