"""Bag-of-features sequence classification with learned attention."""

from . import attention, data, model, nbof, numerics, train
from .attention import att_2da, att_csa, att_ctsa, att_tsa
from .data import (LabeledSequenceSet, gen_noisy_timestamps, gen_order_task,
                   load_features, pad_or_clip, save_features)
from .model import (Model, ModelConfig, cross_entropy, frontend_conv,
                    load_checkpoint, loss_op, save_checkpoint)
from .nbof import aggregate, init_codebook, quantize_raw
from .numerics import DiffOp, GradCheckReport, grad_check
from .train import TrainConfig, TrainReport, accuracy, adam_step, kfold, macro_f1

__all__ = [
    "DiffOp", "GradCheckReport", "LabeledSequenceSet", "Model", "ModelConfig",
    "TrainConfig", "TrainReport", "accuracy", "adam_step", "aggregate", "att_2da",
    "att_csa", "att_ctsa", "att_tsa", "attention", "cross_entropy", "data",
    "frontend_conv", "gen_noisy_timestamps", "gen_order_task", "grad_check",
    "init_codebook", "kfold", "load_checkpoint", "load_features", "loss_op",
    "macro_f1", "model", "nbof", "numerics", "pad_or_clip", "quantize_raw",
    "save_checkpoint", "save_features", "train",
]
