"""Training: SupCon pretraining of the encoder and classifier fine-tuning.

All differentiation is hand-written reverse mode in float64. The optimizer
is RMSProp with momentum applied to the preconditioned step and L2 weight
decay folded into the gradient:

    s <- alpha*s + (1-alpha)*g^2
    m <- mu*m + (g + lambda*theta) / sqrt(s + eps)
    theta <- theta - lr*m

Pretraining and fine-tuning run the same loop, which is single-threaded and
deterministic under a fixed seed: a rerun is byte-identical for one numpy/BLAS
build and one BLAS thread count. Another thread count may sum a product over
more than 128 rows in another order and change the last bits.
A batch sums the gradients of the methods that share an encoder input before
its one backward pass, so float64 state differs at about 1e-15 from the earlier
backward pass per method; reruns stay byte-identical.
"""

from __future__ import annotations

import csv
import struct
import zipfile
import zlib
from tokenize import TokenError
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .blocks import D_MODEL, xavier_uniform
from .data import Pair, PairDataset
from .embed import EmbeddingTable, fits_float32
from .encoder import EncoderParams, encode_backward, encode_methods, init_params, params_tensors
from .errors import DegenerateBatch, FormatError, NumericFailure, ShapeMismatch

__all__ = [
    "RMSPROP_ALPHA",
    "RMSPROP_EPS",
    "PretrainConfig",
    "FineTuneConfig",
    "OptimizerState",
    "PretrainResult",
    "FineTuneHead",
    "supcon_loss",
    "rmsprop_step",
    "clone_classes",
    "sample_batches",
    "pretrain",
    "init_head",
    "save_head",
    "load_head",
    "head_forward",
    "head_backward",
    "cross_entropy",
    "finetune",
    "write_loss_csv",
]

RMSPROP_ALPHA = 0.99
RMSPROP_EPS = 1e-8


_Batch = TypeVar("_Batch")
# the vector of each batch row -> (loss, dL/dvector of each row, non-encoder gradients)
_BatchLoss = Callable[[np.ndarray], tuple[float, np.ndarray, Mapping[str, np.ndarray]]]


@dataclass
class _TrainConfig:
    """The RMSProp and loop fields that pretraining and fine-tuning share."""

    lr: float = 1e-4
    rmsprop_momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0

    _finite = ("lr", "weight_decay", "rmsprop_momentum")
    _min_batch_size = 1

    def validate(self) -> None:
        for name in self._finite:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch_size < self._min_batch_size:
            raise ValueError(f"batch_size must be >= {self._min_batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class PretrainConfig(_TrainConfig):
    temperature: float = 0.07
    # a batch holds P = batch_size // samples_per_class classes of K = samples_per_class
    samples_per_class: int = 4

    _finite = ("lr", "temperature", "weight_decay", "rmsprop_momentum")
    _min_batch_size = 2

    def validate(self) -> None:
        super().validate()
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.samples_per_class < 2:  # a class of one sample has no positive
            raise ValueError(f"samples_per_class must be >= 2, got {self.samples_per_class}")
        if self.batch_size % self.samples_per_class:
            raise ValueError(
                f"batch_size {self.batch_size} must be a multiple of "
                f"samples_per_class {self.samples_per_class}"
            )


@dataclass
class FineTuneConfig(_TrainConfig):
    layers: int = 3

    def validate(self) -> None:
        if self.layers not in HEAD_WIDTHS:
            raise ValueError(f"layers must be one of {sorted(HEAD_WIDTHS)}")
        super().validate()


# --- SupCon loss --------------------------------------------------------


def supcon_loss(z, labels, temperature: float = 0.07):
    """Supervised contrastive loss over raw (unnormalized) vectors.

    Normalization is part of the op; the returned gradient is with respect
    to the raw inputs. Anchors without positives are skipped; if no anchor
    has a positive the batch is degenerate.
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeMismatch(f"z must be 2-d, got shape {z.shape}")
    n = z.shape[0]
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels shape {labels.shape} != ({n},)")

    positives = labels[:, None] == labels[None, :]
    np.fill_diagonal(positives, False)
    anchors = positives.any(axis=1)
    if not anchors.any():
        raise DegenerateBatch("no anchor has a positive in this batch")

    norms = np.linalg.norm(z, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    zhat = z / safe[:, None]

    sims = (zhat @ zhat.T) / temperature
    off_diag = ~np.eye(n, dtype=bool)
    masked = np.where(off_diag, sims, -np.inf)
    row_max = masked.max(axis=1, keepdims=True)
    expd = np.exp(masked - row_max)          # exactly 0 on the diagonal
    denom = expd.sum(axis=1, keepdims=True)
    log_denom = (row_max + np.log(denom)).ravel()

    pos_count = positives.sum(axis=1)
    loss = 0.0
    for i in np.flatnonzero(anchors):
        pos_sims = sims[i, positives[i]]
        loss += -pos_sims.mean() + log_denom[i]

    # dL/dsims for anchor rows: softmax over a != i, minus 1/|P| at positives
    grad_s = np.where(anchors[:, None],
                      expd / denom - positives / np.maximum(pos_count, 1)[:, None], 0.0)
    grad_zhat = (grad_s + grad_s.T) @ zhat / temperature
    # through the normalization: project out the radial component
    radial = np.sum(grad_zhat * zhat, axis=1, keepdims=True)
    dz = (grad_zhat - radial * zhat) / safe[:, None]
    dz[norms == 0.0] = 0.0
    return float(loss), dz


# --- optimizer ----------------------------------------------------------


@dataclass
class OptimizerState:
    square_avg: dict[str, np.ndarray]
    momentum: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray]) -> "OptimizerState":
        return cls(
            square_avg={k: np.zeros_like(v) for k, v in params.items()},
            momentum={k: np.zeros_like(v) for k, v in params.items()},
        )


def rmsprop_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: OptimizerState,
    config,
) -> Mapping[str, np.ndarray]:
    """One in-place update of every tensor in ``params`` by the module docstring's recurrence,
    one rounding per operation in the order it is written; a tensor missing from ``grads``
    has a zero gradient, so it decays through the same operations. Before any change it refuses
    a gradient that names no tensor or has the wrong shape, and a non-finite one; it raises
    NumericFailure naming the first tensor that the update put beyond float32's range,
    which a saved file could not hold."""
    for name, g in grads.items():
        if name not in params:
            raise ShapeMismatch(f"gradient for {name}, which names no tensor")
        if g.shape != params[name].shape:
            raise ShapeMismatch(f"{name}: grad shape {g.shape} != param shape {params[name].shape}")
        if not np.all(np.isfinite(g)):
            raise NumericFailure(f"non-finite gradient for {name}; step rejected")

    lr = config.lr
    mu = config.rmsprop_momentum
    lam = config.weight_decay
    for name, theta in params.items():
        g = grads.get(name, 0.0)
        s = state.square_avg[name]
        m = state.momentum[name]
        s *= RMSPROP_ALPHA
        s += (1.0 - RMSPROP_ALPHA) * g * g
        m *= mu
        m += (g + lam * theta) / np.sqrt(s + RMSPROP_EPS)
        theta -= lr * m
        if not fits_float32(theta):
            raise NumericFailure(f"RMSProp step made tensor {name} beyond float32's range; "
                                 "training stopped")
    return params


# --- clone classes and batch sampling -----------------------------------


def clone_classes(pairs: Iterable[Pair]) -> list[list[str]]:
    """Connected components of the positive-pair graph, each sorted, in order of first member."""
    class_of: dict[str, set[str]] = {}  # method id -> the member set of its class so far
    for pair in pairs:
        if pair.label == 1:
            a = class_of.setdefault(pair.id1, {pair.id1})
            b = class_of.setdefault(pair.id2, {pair.id2})
            if a is not b:
                if len(a) < len(b):  # move the smaller set: each id moves O(log n) times
                    a, b = b, a
                a |= b
                class_of.update(dict.fromkeys(b, a))
    distinct = {id(members): members for members in class_of.values()}
    return sorted(sorted(members) for members in distinct.values())


def sample_batches(
    classes: Sequence[Sequence[str]],
    config: PretrainConfig,
    rng: np.random.Generator,
) -> list[list[tuple[str, int]]]:
    """One epoch of P x K batches over classes with at least two members.

    K is ``config.samples_per_class`` and P is ``config.batch_size // K``,
    capped at the number of eligible classes.
    """
    eligible = [(ci, members) for ci, members in enumerate(classes) if len(members) >= 2]
    if not eligible:
        raise DegenerateBatch("no clone class has two or more members")
    k = config.samples_per_class
    p = min(config.batch_size // k, len(eligible))
    total = sum(len(m) for _, m in eligible)
    n_batches = max(1, -(-total // (p * k)))
    batches = []
    for _ in range(n_batches):
        chosen = rng.choice(len(eligible), size=p, replace=False)
        batch: list[tuple[str, int]] = []
        for ci in chosen:
            label, members = eligible[ci]
            replace = len(members) < k
            picks = rng.choice(len(members), size=k, replace=replace)
            batch.extend((members[j], label) for j in picks)
        batches.append(batch)
    return batches


# --- the training loop --------------------------------------------------


def _batch_grads(
    ids: Sequence[str], dataset: PairDataset, table: EmbeddingTable,
    params: EncoderParams, batch_loss: _BatchLoss,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients of one batch whose rows are the methods ``ids``.

    The distinct ids are encoded once, as one batch. ``batch_loss`` takes the
    vector of each entry of ``ids`` and returns (loss, dL/dvector of each
    row, gradients of tensors outside the encoder). A method that fills
    several rows gets the sum of their gradients (linearity), so the batch
    is backpropagated once.
    """
    distinct, rows = np.unique(np.array(ids), return_inverse=True)
    vectors, _, cache = encode_methods(
        [dataset.methods[mid] for mid in distinct], table, params, want_cache=True
    )
    loss, row_grads, other_grads = batch_loss(vectors[rows])
    dvecs = np.zeros((len(distinct), D_MODEL))  # one row per distinct method
    np.add.at(dvecs, rows, row_grads)
    grads = encode_backward(params, cache, dvecs)
    grads.update(other_grads)
    return loss, grads


def _fit(
    tensors: Mapping[str, np.ndarray],
    config: _TrainConfig,
    epoch_batches: Callable[[], Iterable[_Batch]],
    batch_grads: Callable[[_Batch], tuple[float, Mapping[str, np.ndarray]]],
) -> tuple[list[float], list[tuple[int, int, float]]]:
    """RMSProp over ``config.epochs`` epochs, updating ``tensors`` in place.

    ``epoch_batches()`` is called at the start of each epoch for its
    batches; ``batch_grads(batch)`` returns the batch loss and the gradients
    of the tensors it touches. Returns the mean loss of each epoch and the
    (epoch, batch, loss) log.
    """
    state = OptimizerState.for_params(tensors)
    epoch_losses: list[float] = []
    log: list[tuple[int, int, float]] = []
    for epoch in range(config.epochs):
        batch_losses = []
        for batch_no, batch in enumerate(epoch_batches()):
            # a diverging step overflows on the way; rmsprop_step's checks report it
            # as one NumericFailure, with no numpy warning first
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = batch_grads(batch)
                rmsprop_step(tensors, grads, state, config)
            del grads  # not held while the next batch is encoded
            batch_losses.append(loss)
            log.append((epoch, batch_no, loss))
        epoch_losses.append(float(np.mean(batch_losses)))
    return epoch_losses, log


# --- pretraining --------------------------------------------------------


@dataclass
class PretrainResult:
    params: EncoderParams
    epoch_losses: list[float]
    log: list[tuple[int, int, float]] = field(default_factory=list)  # (epoch, batch, loss)


def pretrain(
    dataset: PairDataset,
    table: EmbeddingTable,
    config: PretrainConfig | None = None,
) -> PretrainResult:
    """SupCon pretraining over clone classes from ``init_params(config.seed)``;
    embeddings stay frozen. Deterministic given (dataset, table, config), for one
    numpy/BLAS build and one BLAS thread count.
    A pair naming a method not in ``dataset.methods`` raises MissingFunction first."""
    config = config or PretrainConfig()
    config.validate()
    dataset.validate()
    params = init_params(config.seed)
    classes = clone_classes(dataset.pairs)
    rng = np.random.default_rng(config.seed)

    def batch_grads(batch: list[tuple[str, int]]):
        labels = np.array([label for _, label in batch])
        return _batch_grads([mid for mid, _ in batch], dataset, table, params,
                            lambda z: (*supcon_loss(z, labels, config.temperature), {}))

    epoch_losses, log = _fit(params_tensors(params), config,
                             lambda: sample_batches(classes, config, rng), batch_grads)
    return PretrainResult(params=params, epoch_losses=epoch_losses, log=log)


# --- fine-tune head -----------------------------------------------------


HEAD_WIDTHS = {
    1: (200, 2),
    3: (200, 100, 32, 2),
    5: (200, 100, 64, 32, 16, 2),
}


@dataclass
class FineTuneHead:
    weights: list[np.ndarray]  # each (fan_in, fan_out)
    biases: list[np.ndarray]

    @property
    def k(self) -> int:
        return len(self.weights)

    def tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"l{i}.w"] = w
            out[f"l{i}.b"] = b
        return out


def save_head(head: FineTuneHead, path) -> None:
    """Write a head as an npz archive: ``k`` and one ``l{i}.w`` / ``l{i}.b`` per layer."""
    with open(path, "wb") as fh:  # given a path, np.savez would add ".npz" to it
        np.savez(fh, **head.tensors(), k=np.array(head.k))


def load_head(path) -> FineTuneHead:
    """Read a head written by ``save_head``.

    Raises FormatError for a file that is not an npz archive or holds
    pickled data, a missing key, a ``k`` not in HEAD_WIDTHS, a tensor whose
    shape disagrees with ``HEAD_WIDTHS[k]``, and a tensor that is not real
    floating point or holds a non-finite value (checked before the float64 cast).
    """
    # np.load given a path leaks the file when the zip cannot be read, so open it here
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise FormatError(f"head file {path} is a single array, not a head npz archive")
            k = int(archive["k"])
            if k not in HEAD_WIDTHS:
                raise FormatError(f"head file {path}: k = {k} is not one of {sorted(HEAD_WIDTHS)}")
            # a member that is not an .npy file comes back as raw bytes
            layers = [(np.asarray(archive[f"l{i}.w"]), np.asarray(archive[f"l{i}.b"]))
                      for i in range(k)]
        except KeyError as exc:
            raise FormatError(f"head file {path} is missing an entry ({exc.args[0]})") from exc
        # what zipfile and numpy's .npy parser raise on bytes they cannot read
        except (TypeError, ValueError, OverflowError, EOFError, OSError, RuntimeError,
                SyntaxError, TokenError, struct.error, zlib.error, zipfile.BadZipFile) as exc:
            raise FormatError(f"head file {path} is not a head npz archive: {exc}") from exc
    widths = HEAD_WIDTHS[k]
    for i, (w, b) in enumerate(layers):
        if w.shape != widths[i : i + 2] or b.shape != widths[i + 1 : i + 2]:
            raise FormatError(
                f"head file {path}: layer {i} shapes {w.shape}, {b.shape} do not match "
                f"widths {widths}"
            )
        # real floats no wider than float64: the cast below cannot drop or overflow a value
        if not all(arr.dtype.kind == "f" and arr.dtype.itemsize <= 8 and np.all(np.isfinite(arr))
                   for arr in (w, b)):
            raise FormatError(f"head file {path}: non-finite or non-real value in layer {i}")
    return FineTuneHead(weights=[w.astype(np.float64) for w, _ in layers],
                        biases=[b.astype(np.float64) for _, b in layers])


def init_head(k: int = 3, seed: int = 0) -> FineTuneHead:
    if k not in HEAD_WIDTHS:
        raise ValueError(f"k must be one of {sorted(HEAD_WIDTHS)}")
    widths = HEAD_WIDTHS[k]
    rng = np.random.default_rng(seed)
    return FineTuneHead(weights=[xavier_uniform(rng, *fans) for fans in zip(widths, widths[1:])],
                        biases=[np.zeros(fan_out) for fan_out in widths[1:]])


def head_forward(head: FineTuneHead, x: np.ndarray, want_cache: bool = False):
    """Logits ([P,] B, 2) for inputs ([P,] B, 200); ReLU between layers, none after
    the last. Each slice of a (P, B, 200) stack gives the bytes of its own 2-D
    call, as every product is a per-slice ``@``. The cache is each layer's
    input: ``x``, then every ReLU output; ``head_backward`` reads 2-D caches."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != head.weights[0].shape[0]:
        raise ShapeMismatch(
            f"head input shape {x.shape} != ([P,] B, {head.weights[0].shape[0]})")
    activations = [x]
    h = x
    last = len(head.weights) - 1
    for i, (w, b) in enumerate(zip(head.weights, head.biases)):
        h = h @ w + b
        if i != last:
            h = np.maximum(h, 0.0)
            activations.append(h)
    return (h, activations) if want_cache else h


def head_backward(head: FineTuneHead, activations, dlogits: np.ndarray):
    grads: dict[str, np.ndarray] = {}
    dh = np.asarray(dlogits, dtype=np.float64)
    last = len(head.weights) - 1
    for i in range(last, -1, -1):
        grads[f"l{i}.w"] = activations[i].T @ dh
        grads[f"l{i}.b"] = dh.sum(axis=0)
        dh = dh @ head.weights[i].T
        if i > 0:
            dh = dh * (activations[i] > 0.0)  # a ReLU output is > 0 where its input is
    return dh, grads


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean softmax cross-entropy over rows; returns (loss, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    n = logits.shape[0]
    loss = -log_probs[np.arange(n), targets].mean()
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    return float(loss), dlogits


def finetune(
    params: EncoderParams,
    dataset: PairDataset,
    table: EmbeddingTable,
    config: FineTuneConfig | None = None,
) -> tuple[FineTuneHead, list[float]]:
    """Supervised pair training of ``params``, in place, and of a new head
    ``init_head(config.layers, seed=config.seed)``; returns the head and each
    epoch's mean loss. A pair naming a method not in ``dataset.methods`` raises
    MissingFunction first."""
    config = config or FineTuneConfig()
    config.validate()
    dataset.validate()
    pairs = list(dataset.pairs)
    if not pairs:
        raise DegenerateBatch("no pairs to fine-tune on")

    head = init_head(config.layers, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    tensors = params_tensors(params)
    for name, arr in head.tensors().items():
        tensors[f"head.{name}"] = arr

    def epoch_batches():
        order = rng.permutation(len(pairs))
        for start in range(0, len(order), config.batch_size):
            yield [pairs[i] for i in order[start : start + config.batch_size]]

    def batch_grads(chunk: list[Pair]):
        labels = np.array([p.label for p in chunk], dtype=np.int64)

        def batch_loss(vectors):
            x = vectors.reshape(len(chunk), 2 * D_MODEL)  # each row: id1's vector, then id2's
            logits, head_cache = head_forward(head, x, want_cache=True)
            loss, dlogits = cross_entropy(logits, labels)
            dx, head_grads = head_backward(head, head_cache, dlogits)
            return loss, dx.reshape(-1, D_MODEL), {f"head.{n}": g for n, g in head_grads.items()}

        return _batch_grads([mid for p in chunk for mid in (p.id1, p.id2)],
                            dataset, table, params, batch_loss)

    epoch_losses, _ = _fit(tensors, config, epoch_batches, batch_grads)
    return head, epoch_losses


def write_loss_csv(log: Sequence[tuple[int, int, float]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "batch", "loss"])
        for epoch, batch, loss in log:
            writer.writerow([epoch, batch, f"{loss:.10g}"])
