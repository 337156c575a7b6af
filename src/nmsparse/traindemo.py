"""Two-class MLP training demo with masked gradients and activations.

A small fully connected ReLU network is trained by plain SGD on synthetic
2-D datasets. Neural gradients (loss gradients at pre-activations) can be
masked with any stochastic block estimator before they enter the weight
update, and hidden activations can be masked greedily, either on the raw
pre-activations or after the ReLU. The backward pass itself always uses
the unmasked gradient signal; masking applies where the gradient is
consumed by the update, mirroring how block-sparse hardware would consume
it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import BlockedTensor, SparsityPattern, _lane_blocks, pattern_violations
from .estimators import (
    PATTERN_24,
    EstimatorKind,
    elementwise_variance_array,
    prune_array,
    resolve_pattern,
)
from .rng import RandomStream

DATASET_KINDS = ("two-moons", "spirals")
ACT_MODES = ("none", "greedy", "relu-greedy")


@dataclass(frozen=True)
class MlpConfig:
    """Training configuration; defaults give a quickly separable problem."""

    widths: tuple[int, ...] = (2, 64, 64, 2)
    epochs: int = 120
    lr: float = 0.15
    batch_size: int = 64
    seed: int = 0
    grad_mask: EstimatorKind | None = None
    grad_pattern: SparsityPattern | None = None
    act_mask: str = "none"
    act_pattern: SparsityPattern = PATTERN_24
    val_fraction: float = 0.25
    validate_patterns: bool = False

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError("need at least input, one hidden and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 < self.lr:
            raise ValueError("learning rate must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.act_mask not in ACT_MODES:
            raise ValueError(f"act_mask must be one of {ACT_MODES}")
        if self.grad_mask is EstimatorKind.GREEDY_MSE:
            raise ValueError("gradient masking requires a stochastic estimator")
        pattern = self.resolved_grad_pattern()
        if pattern is not None and max(self.widths[1:]) < pattern.m:
            raise ValueError(f"no layer is wide enough for gradient pattern {pattern}")
        if self.act_mask != "none" and min(self.widths[1:-1]) < self.act_pattern.m:
            raise ValueError(
                f"hidden widths {self.widths[1:-1]} too small for activation pattern {self.act_pattern}"
            )

    def resolved_grad_pattern(self) -> SparsityPattern | None:
        if self.grad_mask is None:
            return None
        return resolve_pattern(self.grad_mask, self.grad_pattern)


@dataclass(frozen=True)
class TrainRecord:
    epoch: int
    loss: float
    val_acc: float


def generate_dataset(
    kind: str, n: int, noise: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced, shuffled 2-D two-class dataset; X is (n, 2), y is (n,)."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
    if n < 2:
        raise ValueError("need at least one sample per class")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    stream = RandomStream(seed, stream=7)
    n0 = n // 2
    n1 = n - n0
    if kind == "two-moons":
        t0 = stream.uniforms(n0) * math.pi
        t1 = stream.uniforms(n1) * math.pi
        x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    else:
        t0 = 3.0 * math.pi * np.sqrt(stream.uniforms(n0))
        t1 = 3.0 * math.pi * np.sqrt(stream.uniforms(n1))
        r0 = t0 / (3.0 * math.pi)
        r1 = t1 / (3.0 * math.pi)
        x0 = np.stack([r0 * np.cos(t0), r0 * np.sin(t0)], axis=1)
        x1 = np.stack([-r1 * np.cos(t1), -r1 * np.sin(t1)], axis=1)
    X = np.concatenate([x0, x1], axis=0)
    if noise > 0:
        X = X + stream.normals(X.shape, scale=noise)
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    perm = stream.permutation(n)
    return X[perm], y[perm]


def _mask_rows(
    mat: np.ndarray,
    kind: EstimatorKind,
    pattern: SparsityPattern,
    stream: RandomStream | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Prune whole blocks along the feature axis with prune_array, in place
    in a copy of mat; the remainder columns pass through unpruned with a
    True keep flag."""
    out, keep = mat.copy(), np.ones(mat.shape, dtype=bool)
    blocks = _lane_blocks(out, 1, pattern.m)[0]
    if blocks.size:
        blocks[...], mask = prune_array(blocks, kind, pattern, stream)
        keep[:, : mask[0].size] = mask.reshape(len(mat), -1)
    return out, keep


class _Mlp:
    """Plain numpy MLP with softmax cross-entropy loss."""

    def __init__(self, config: MlpConfig, stream: RandomStream):
        self.config = config
        self.weights = []
        self.biases = []
        for l in range(len(config.widths) - 1):
            fan_in, fan_out = config.widths[l], config.widths[l + 1]
            init = stream.split(l)
            self.weights.append(init.normals((fan_in, fan_out), scale=math.sqrt(2.0 / fan_in)))
            self.biases.append(np.zeros(fan_out))

    def forward(self, X: np.ndarray):
        """Returns (layer inputs, derivative masks, logits)."""
        config = self.config
        inputs = [X]
        deriv_masks = []
        h = X
        last = len(self.weights) - 1
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W + b
            if l == last:
                return inputs, deriv_masks, z
            relu = config.act_mask != "greedy"  # "greedy" masks the raw pre-activations
            h, deriv = (np.maximum(z, 0.0), z > 0.0) if relu else (z, True)
            if config.act_mask != "none":
                h, keep = _mask_rows(h, EstimatorKind.GREEDY_MSE, config.act_pattern)
                deriv = deriv & keep
                if config.validate_patterns and pattern_violations(
                    BlockedTensor.from_array(h), config.act_pattern
                ):
                    raise AssertionError(f"activation block violates pattern {config.act_pattern}")
            inputs.append(h)
            deriv_masks.append(deriv)

    def layer_gradients(self, X: np.ndarray, y: np.ndarray):
        """Unmasked pre-activation gradients per layer plus the loss."""
        inputs, deriv_masks, logits = self.forward(X)
        batch = X.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.log(probs[np.arange(batch), y] + 1e-300).mean())
        grad = probs
        grad[np.arange(batch), y] -= 1.0
        grad /= batch
        grads = [None] * len(self.weights)
        grads[-1] = grad
        for l in range(len(self.weights) - 2, -1, -1):
            grad = (grad @ self.weights[l + 1].T) * deriv_masks[l]
            grads[l] = grad
        return inputs, grads, loss

    def apply_gradients(self, inputs, grads, grad_streams) -> None:
        config = self.config
        kind = config.grad_mask
        pattern = config.resolved_grad_pattern()
        for l in range(len(self.weights)):
            g = grads[l]
            if kind is not None:
                g = _mask_rows(g, kind, pattern, grad_streams[l])[0]
            self.weights[l] -= config.lr * (inputs[l].T @ g)
            self.biases[l] -= config.lr * g.sum(axis=0)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.forward(X)[2].argmax(axis=1) == y).mean())


def _training(config: MlpConfig, data: tuple[np.ndarray, np.ndarray] | None):
    """Set-up and loop shared by train and masked_gradient_check.

    Returns the model, the update function (inputs, grads) -> None that
    masks the gradients, the validation split, and an endless iterator of
    (epoch, step, last step of the epoch, X batch, y batch) over shuffled
    training batches.
    """
    if data is None:
        data = generate_dataset("two-moons", 1024, 0.1, config.seed)
    X, y = np.asarray(data[0], dtype=np.float64), np.asarray(data[1], dtype=np.int64)
    n_val = max(1, int(round(X.shape[0] * config.val_fraction)))
    X_train, y_train = X[:-n_val], y[:-n_val]

    master = RandomStream(config.seed, stream=11)
    model = _Mlp(config, master.split(1))
    shuffle_stream = master.split(2)
    grad_streams = [master.split(100 + l) for l in range(len(config.widths) - 1)]

    def batches():
        n_train = X_train.shape[0]
        for epoch in itertools.count():
            perm = shuffle_stream.permutation(n_train)
            for step, start in enumerate(range(0, n_train, config.batch_size)):
                idx = perm[start : start + config.batch_size]
                last = start + config.batch_size >= n_train
                yield epoch, step, last, X_train[idx], y_train[idx]

    update = functools.partial(model.apply_gradients, grad_streams=grad_streams)
    return model, update, (X[-n_val:], y[-n_val:]), batches()


def train(
    config: MlpConfig, data: tuple[np.ndarray, np.ndarray] | None = None
) -> list[TrainRecord]:
    """Train the MLP; returns one record per epoch.

    Identical configs (and data) produce identical record sequences.
    Raises FloatingPointError if the loss leaves the finite range.
    """
    model, update, (X_val, y_val), batches = _training(config, data)
    records = []
    total_loss, seen = 0.0, 0
    for epoch, step, last, X_batch, y_batch in batches:
        inputs, grads, loss = model.layer_gradients(X_batch, y_batch)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}, step {step}")
        update(inputs, grads)
        total_loss += loss * X_batch.shape[0]
        seen += X_batch.shape[0]
        if last:
            records.append(TrainRecord(epoch, total_loss / seen, model.accuracy(X_val, y_val)))
            total_loss, seen = 0.0, 0
            if len(records) == config.epochs:
                return records


@dataclass(frozen=True)
class GradCheckResult:
    """Componentwise z-scores of the masked-gradient mean against the
    unmasked gradient, after ``redraws`` independent mask draws. Standard
    errors come from the estimator's closed-form per-entry variance, so
    rarely kept entries are judged fairly rather than by a vanishing
    empirical spread."""

    kind: EstimatorKind
    redraws: int
    components: int
    z_scores: np.ndarray = field(repr=False)
    max_z: float = 0.0

    def fraction_above(self, sigma: float) -> float:
        return float((self.z_scores > sigma).mean())


def masked_gradient_check(
    config: MlpConfig,
    kind: EstimatorKind | None = None,
    redraws: int = 10_000,
    at_step: int = 5,
    layer: int = 0,
    seed: int = 1234,
    chunk: int = 500,
) -> GradCheckResult:
    """Empirical mean of repeated gradient maskings against the true
    gradient, captured mid-training.

    Runs the configured training loop up to ``at_step`` updates, takes the
    unmasked pre-activation gradient of ``layer`` on that step's batch,
    then redraws the mask ``redraws`` times. z-scores are
    |mean - g| / (sd_i / sqrt(redraws)) per component with sd_i from the
    closed-form estimator variance; axis-remainder columns are excluded
    since they pass through unmasked.
    """
    if kind is None:
        kind = config.grad_mask
    if kind is None or kind is EstimatorKind.GREEDY_MSE:
        raise ValueError("the gradient-mean check needs a stochastic estimator")
    pattern = resolve_pattern(kind, config.grad_pattern)

    model, update, _, batches = _training(config, None)
    for step, (*_, X_batch, y_batch) in enumerate(batches):
        inputs, grads, _ = model.layer_gradients(X_batch, y_batch)
        if step == at_step:
            captured = grads[layer]
            break
        update(inputs, grads)

    blocks = _lane_blocks(captured, 1, pattern.m)[0].reshape(-1, pattern.m)
    if blocks.size == 0:
        raise ValueError(f"layer {layer} has no whole {pattern} blocks")
    # All-zero blocks (dead units) are reproduced exactly by every method
    # and carry no information; check only the live ones.
    blocks = blocks[np.any(blocks != 0.0, axis=1)]
    if blocks.shape[0] == 0:
        raise ValueError(f"layer {layer} gradient is entirely zero at step {at_step}")

    stream = RandomStream(seed, stream=13)
    total = np.zeros_like(blocks)
    for done in range(0, redraws, chunk):
        count = min(chunk, redraws - done)
        tiled = np.broadcast_to(blocks, (count, *blocks.shape))
        total += prune_array(tiled, kind, pattern, stream)[0].sum(axis=0)

    mean = total / redraws
    se = np.sqrt(elementwise_variance_array(blocks, kind) / redraws)
    diff = np.abs(mean - blocks)
    scale = max(1.0, float(np.abs(blocks).max()))
    z = np.where(
        se > 0.0,
        diff / np.maximum(se, 1e-300),
        np.where(diff > 1e-12 * scale, np.inf, 0.0),
    )
    z = z.reshape(-1)
    return GradCheckResult(
        kind=kind,
        redraws=redraws,
        components=int(z.size),
        z_scores=z,
        max_z=float(z.max()),
    )
