"""Adam optimization, cross-validation splits, and classification metrics.

Everything is seeded: codebook subsampling, weight init, shuffling and
dropout all stream from the run seed, so identical (config, seed) pairs
reproduce loss traces and final parameters bit for bit.  Fold f of a k-fold
run uses the derived seed ``seed ^ f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nbof, numerics
from .data import LabeledSequenceSet
from .errors import ConfigError, ShapeError, TrainingDiverged
from .model import Model, ModelConfig
from .numerics import Array


@dataclass
class TrainConfig:
    # defaults mirror the reference protocol; desk-scale runs override them
    epochs: int = 90
    batch_size: int = 256
    learning_rate: float = 1e-3
    folds: int = 1                 # 1 = single stratified holdout split
    holdout_fraction: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.folds < 1:
            raise ConfigError(f"folds must be >= 1, got {self.folds}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")


# ---------------------------------------------------------------------------
# Adam

# the moment decays and the denominator guard of Kingma & Ba, used by every run
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: Array    # first moments, laid out like ``Model.flat``
    v: Array    # second moments, likewise
    t: int = 0


def init_adam(params: Array) -> AdamState:
    return AdamState(m=np.zeros(params.size), v=np.zeros(params.size))


def adam_step(params: Array, grad: Array, state: AdamState, cfg: TrainConfig
              ) -> tuple[Array, AdamState]:
    """One bias-corrected moment update of the parameter vector, in place.
    A misshapen gradient raises ``ShapeError`` and a non-finite step
    ``TrainingDiverged``, both before any parameter moves."""
    if grad.shape != params.shape:
        raise ShapeError(f"adam_step: gradient is {grad.shape}, parameters are {params.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * (grad * grad)
    step = cfg.learning_rate * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)
    if not np.isfinite(step).all():
        raise TrainingDiverged(f"non-finite Adam step {state.t}")
    params -= step
    return params, state


# ---------------------------------------------------------------------------
# splits


def _groups_by_label(dataset: LabeledSequenceSet) -> dict[int, list[list[int]]]:
    size = dataset.group_size
    if len(dataset) % size != 0:
        raise ValueError(
            f"dataset of {len(dataset)} items is not divisible into groups of {size}")
    labels = dataset.labels()
    buckets: dict[int, list[list[int]]] = {}
    for start in range(0, len(dataset), size):
        group = list(range(start, start + size))
        buckets.setdefault(int(labels[start]), []).append(group)
    return buckets


def kfold(dataset: LabeledSequenceSet, folds: int, seed: int
          ) -> list[tuple[LabeledSequenceSet, LabeledSequenceSet]]:
    """Disjoint, exhaustive, label-stratified folds; twin groups stay intact."""
    if folds < 2:
        raise ConfigError(f"cross-validation needs folds >= 2, got {folds}")
    buckets = _groups_by_label(dataset)
    count = sum(map(len, buckets.values()))
    if folds > count:   # groups are dealt to the folds in turn; a fold would be empty
        raise ConfigError(f"folds is {folds}, the data has {count} label groups")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(folds)]
    turn = 0
    for _, groups in sorted(buckets.items()):
        for j in rng.permutation(len(groups)):
            fold_members[turn % folds].extend(groups[j])
            turn += 1
    splits = []
    for f in range(folds):
        val = sorted(fold_members[f])
        train = sorted(i for g in range(folds) if g != f for i in fold_members[g])
        splits.append((dataset.subset(train), dataset.subset(val)))
    return splits


def holdout_split(dataset: LabeledSequenceSet, test_fraction: float, seed: int
                  ) -> tuple[LabeledSequenceSet, LabeledSequenceSet]:
    """Single stratified split; twin groups stay on one side."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    buckets = _groups_by_label(dataset)
    for label in sorted(buckets):
        groups = buckets[label]
        n_test = int(round(test_fraction * len(groups)))
        for j in rng.permutation(len(groups))[:n_test]:
            test_idx.extend(groups[j])
    test_set = set(test_idx)
    train_idx = [i for i in range(len(dataset)) if i not in test_set]
    if not test_idx or not train_idx:
        raise ValueError("holdout split leaves one side empty; adjust the fraction")
    return dataset.subset(train_idx), dataset.subset(sorted(test_idx))


# ---------------------------------------------------------------------------
# metrics


def accuracy(preds, labels) -> float:
    preds, labels = np.asarray(preds), np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ValueError(f"accuracy: got {preds.shape} predictions for "
                         f"{labels.shape} labels")
    return float(np.mean(preds == labels))


def macro_f1(preds, labels) -> float:
    """Unweighted mean of per-class F1 over classes present in labels or
    predictions."""
    preds, labels = np.asarray(preds), np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ValueError(f"macro_f1: got {preds.shape} predictions for "
                         f"{labels.shape} labels")
    scores = []
    for c in sorted(set(preds.tolist()) | set(labels.tolist())):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        scores.append(2.0 * tp / (2 * tp + fp + fn))
    return float(np.mean(scores))


# evaluate stacks items until their (B, K, N) memberships reach this many
# entries (64 KiB of float64), _EVAL_STACK_FLOOR items at least: 17 at
# K=16, N=30 and 4 at K=64, N=256.  Larger stacks were no faster at K=16,
# N=30 and raise peak memory.
_EVAL_STACK_ELEMENTS = 1 << 13
# At K=64, N=256 (conv + csa, 2 vCPUs), predict loops over 600 items, one
# process cycling through the sizes, read 427, 362, 318, 310, 496 and 495
# µs/item at B=1, 2, 3, 4, 6 and 8 (median of 5 processes), and after a
# warm-up under 0.2 minor page faults per item up to B=4 against 90 at 6 and 8.
_EVAL_STACK_FLOOR = 4


def evaluate(net: Model, dataset: LabeledSequenceSet) -> tuple[float, float]:
    """Accuracy and macro-F1 of ``net`` on ``dataset``.

    Items of one sequence length are predicted in stacked ``predict`` calls
    of at most ``_EVAL_STACK_ELEMENTS`` memberships each, but
    ``_EVAL_STACK_FLOOR`` (four) items at least, in dataset order.  A stack
    never holds more items than fit under ``numerics.MAX_VALUES``.
    """
    items = dataset.items
    lengths = np.array([x.shape[1] for x, _ in items])
    preds = np.zeros(len(items), dtype=int)
    for length in dict.fromkeys(lengths.tolist()):
        idx = np.flatnonzero(lengths == length)
        fill = _EVAL_STACK_ELEMENTS // (net.config.codewords * length)
        step = min(max(_EVAL_STACK_FLOOR, fill),
                   max(1, numerics.MAX_VALUES // net.config.stage_values(length)))
        for start in range(0, len(idx), step):
            chunk = idx[start:start + step]
            preds[chunk] = net.predict(np.array([items[i][0] for i in chunk]))
    labels = dataset.labels()
    return accuracy(preds, labels), macro_f1(preds, labels)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class FoldResult:
    fold: int
    loss_trace: list[float]
    accuracy: float
    macro_f1: float


@dataclass
class TrainReport:
    epochs: int
    folds: list[FoldResult]
    accuracy_mean: float = field(init=False)
    accuracy_std: float = field(init=False)
    f1_mean: float = field(init=False)
    f1_std: float = field(init=False)

    def __post_init__(self):
        accs = np.array([f.accuracy for f in self.folds])
        f1s = np.array([f.macro_f1 for f in self.folds])
        self.accuracy_mean = float(accs.mean())
        self.f1_mean = float(f1s.mean())
        # sample std; a single fold has no spread
        self.accuracy_std = float(accs.std(ddof=1)) if len(accs) > 1 else 0.0
        self.f1_std = float(f1s.std(ddof=1)) if len(f1s) > 1 else 0.0

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "folds": [{"fold": f.fold, "accuracy": f.accuracy,
                       "macro_f1": f.macro_f1, "loss_trace": f.loss_trace}
                      for f in self.folds],
            "accuracy": {"mean": self.accuracy_mean, "std": self.accuracy_std},
            "macro_f1": {"mean": self.f1_mean, "std": self.f1_std},
        }

    def to_markdown(self) -> str:
        lines = ["| fold | accuracy | macro-F1 |", "|---|---|---|"]
        for f in self.folds:
            lines.append(f"| {f.fold} | {100 * f.accuracy:.2f} | {100 * f.macro_f1:.2f} |")
        lines.append(f"| mean + std | {100 * self.accuracy_mean:.2f} + "
                     f"{100 * self.accuracy_std:.2f} | {100 * self.f1_mean:.2f} + "
                     f"{100 * self.f1_std:.2f} |")
        return "\n".join(lines)


def fit(net: Model, train_set: LabeledSequenceSet, cfg: TrainConfig) -> list[float]:
    """Train in place on ``train_set``, drawing from ``cfg.seed``; returns the
    per-epoch mean loss trace.

    The codebook is re-initialized from the training features so every fold
    sees only its own split, from what the quantizer sees of them:
    ``Model.quantizer_input``, the output of the stages before it (a conv
    frontend, input-mode 2da) at their initial parameters.  Each mini-batch
    runs as one stacked ``loss_and_grad`` per sequence length it contains;
    every item's dropout seed is drawn in batch order, as in a per-item loop.
    """
    cfg.validate()
    if len(train_set) == 0:
        raise ValueError("fit: empty training set")
    lengths = np.array([x.shape[1] for x, _ in train_set.items])
    # the largest stack of each length, before the codebook draw below runs
    # the stages before the quantizer outside Model._run
    for length, count in zip(*np.unique(lengths, return_counts=True)):
        net.config.check_stack(min(cfg.batch_size, int(count)), int(length))
    rng = np.random.default_rng(cfg.seed)
    features = [net.quantizer_input(x) for x, _ in train_set.items]
    net.set_codebook(nbof.init_codebook(features, net.config.codewords, seed=cfg.seed))
    state = init_adam(net.flat)
    n = len(train_set)
    labels = train_set.labels()
    trace: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start:start + cfg.batch_size]
            seeds = rng.integers(2 ** 31, size=len(batch))
            total = np.zeros(state.m.shape)
            # one stack per sequence length, in order of first appearance
            for length in dict.fromkeys(lengths[batch]):
                sub = lengths[batch] == length
                xs = np.array([train_set.items[i][0] for i in batch[sub]])
                losses, grad = net.loss_and_grad(xs, labels[batch[sub]], training=True,
                                                 seed=seeds[sub])
                if not np.all(np.isfinite(losses)):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {batch_no}")
                for loss in losses:  # item by item, as the per-item loop summed
                    epoch_loss += float(loss)
                total += grad
            if not np.isfinite(total).all():
                raise TrainingDiverged(
                    f"non-finite gradient at epoch {epoch}, batch {batch_no}")
            adam_step(net.flat, total * (1.0 / len(batch)), state, cfg)
        trace.append(epoch_loss / n)
    return trace


def cross_validate(config: ModelConfig, dataset: LabeledSequenceSet, cfg: TrainConfig
                   ) -> TrainReport:
    """k-fold cross-validation (folds >= 2): a fresh model per fold, seeded
    ``cfg.seed ^ fold``, trained on the other folds and scored on its own."""
    results = []
    for f, (train_set, val_set) in enumerate(kfold(dataset, cfg.folds, cfg.seed)):
        fold_net = Model.build(replace(config, seed=cfg.seed ^ f))
        trace = fit(fold_net, train_set, replace(cfg, seed=cfg.seed ^ f))
        results.append(FoldResult(f, trace, *evaluate(fold_net, val_set)))
    return TrainReport(epochs=cfg.epochs, folds=results)


def train(net: Model, dataset: LabeledSequenceSet, cfg: TrainConfig
          ) -> tuple[Model, TrainReport]:
    """Run the configured protocol and return (final model, report).

    folds == 1: one stratified holdout split; the given model is trained on
    the train side and scored on the held-out side.  folds >= 2: the report
    of :func:`cross_validate`, then the given model is trained on the full
    dataset.
    """
    cfg.validate()
    if len(dataset) == 0:
        raise ValueError("train: empty dataset")
    if cfg.folds == 1:
        train_set, val_set = holdout_split(dataset, cfg.holdout_fraction, cfg.seed)
        trace = fit(net, train_set, cfg)
        return net, TrainReport(cfg.epochs, [FoldResult(0, trace, *evaluate(net, val_set))])
    report = cross_validate(net.config, dataset, cfg)
    fit(net, dataset, cfg)
    return net, report
