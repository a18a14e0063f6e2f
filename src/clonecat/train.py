"""Training: SupCon pretraining of the encoder and classifier fine-tuning.

All differentiation is hand-written reverse mode in float64. The optimizer
is RMSProp with momentum applied to the preconditioned step and L2 weight
decay folded into the gradient:

    s <- alpha*s + (1-alpha)*g^2
    m <- mu*m + (g + lambda*theta) / sqrt(s + eps)
    theta <- theta - lr*m

Training loops are single-threaded and deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .blocks import D_MODEL, block_backward
from .embed import EmbeddingTable
from .encoder import (
    EncodeCache,
    EncoderParams,
    encode_methods,
    init_params,
    params_tensors,
)
from .errors import DegenerateBatch, FormatError, NumericFailure, ShapeMismatch
from .lexcat import NUM_CATEGORIES, CategorizedMethod

__all__ = [
    "RMSPROP_ALPHA",
    "RMSPROP_EPS",
    "PretrainConfig",
    "FineTuneConfig",
    "OptimizerState",
    "PretrainResult",
    "FineTuneHead",
    "FineTuneResult",
    "GradCheckReport",
    "supcon_loss",
    "rmsprop_step",
    "clone_classes",
    "sample_batches",
    "encode_backward",
    "pretrain",
    "init_head",
    "save_head",
    "load_head",
    "head_forward",
    "head_backward",
    "cross_entropy",
    "finetune",
    "grad_check",
    "write_loss_csv",
]

RMSPROP_ALPHA = 0.99
RMSPROP_EPS = 1e-8


def _check_options(config, *finite: str) -> None:
    """The named fields are finite and ``epochs`` is not negative."""
    for name in finite:
        value = getattr(config, name)
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if config.epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {config.epochs}")


class PairRecord(Protocol):
    id1: str
    id2: str
    label: int


class SupportsPairs(Protocol):
    methods: Mapping[str, CategorizedMethod]
    pairs: Sequence[PairRecord]


@dataclass
class PretrainConfig:
    lr: float = 1e-4
    rmsprop_momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 64
    temperature: float = 0.07
    seed: int = 0
    # a batch holds P = batch_size // samples_per_class classes of K = samples_per_class
    samples_per_class: int = 4

    def validate(self) -> None:
        _check_options(self, "lr", "temperature", "weight_decay", "rmsprop_momentum")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.samples_per_class < 1 or self.batch_size % self.samples_per_class:
            raise ValueError(
                f"batch_size {self.batch_size} must be a multiple of "
                f"samples_per_class {self.samples_per_class}"
            )


@dataclass
class FineTuneConfig:
    layers: int = 3
    lr: float = 1e-4
    rmsprop_momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    symmetrize: bool = False

    def validate(self) -> None:
        if self.layers not in HEAD_WIDTHS:
            raise ValueError(f"layers must be one of {sorted(HEAD_WIDTHS)}")
        _check_options(self, "lr", "weight_decay", "rmsprop_momentum")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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
    grad_s = np.zeros_like(sims)
    soft = expd / denom
    grad_s[anchors] = soft[anchors]
    grad_s[positives & anchors[:, None]] -= np.repeat(
        1.0 / pos_count[anchors], pos_count[anchors]
    )
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
    step: int = 0

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
    """One in-place update; rejects the step if any gradient is non-finite."""
    for name, theta in params.items():
        if name not in grads:
            raise ShapeMismatch(f"missing gradient for {name}")
        if grads[name].shape != theta.shape:
            raise ShapeMismatch(
                f"{name}: grad shape {grads[name].shape} != param shape {theta.shape}"
            )
    for name in grads:
        if not np.all(np.isfinite(grads[name])):
            raise NumericFailure(f"non-finite gradient for {name}; step rejected")

    lr = config.lr
    mu = config.rmsprop_momentum
    lam = config.weight_decay
    for name, theta in params.items():
        g = grads[name]
        s = state.square_avg[name]
        m = state.momentum[name]
        s *= RMSPROP_ALPHA
        s += (1.0 - RMSPROP_ALPHA) * g * g
        m *= mu
        m += (g + lam * theta) / np.sqrt(s + RMSPROP_EPS)
        theta -= lr * m
    state.step += 1
    return params


# --- clone classes and batch sampling -----------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def clone_classes(pairs: Iterable[PairRecord]) -> list[list[str]]:
    """Connected components of the positive-pair graph, deterministically ordered."""
    uf = _UnionFind()
    for pair in pairs:
        if pair.label == 1:
            uf.union(pair.id1, pair.id2)
    groups: dict[str, list[str]] = {}
    for node in uf.parent:
        groups.setdefault(uf.find(node), []).append(node)
    classes = [sorted(members) for members in groups.values()]
    classes.sort(key=lambda members: members[0])
    return classes


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


# --- backward through the encoder composition ---------------------------


def encode_backward(
    params: EncoderParams, cache: EncodeCache, dvec: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of loss wrt all touched encoder tensors, given dL/dvector:
    one row per method the cache encoded ((100,) for one method). Each
    stacked block call is backpropagated once."""
    dvec = np.reshape(dvec, (-1, D_MODEL))
    grads: dict[str, np.ndarray] = {}

    def add(prefix: str, block_grads: Mapping[str, np.ndarray]) -> None:
        for name, g in block_grads.items():
            key = prefix + name
            grads[key] = grads[key] + g if key in grads else g
    d_stacked = np.zeros((len(dvec), NUM_CATEGORIES, D_MODEL))
    for members, cats, block_cache in cache.type:
        dy = np.broadcast_to((dvec[members] / cats.shape[1])[:, None], block_cache.x.shape)
        d_in, block_grads = block_backward(params.type_block, block_cache, dy)
        add("type.", block_grads)
        d_stacked[members[:, None], cats] = d_in
    for cat, members, block_cache in cache.category:
        n_rows = block_cache.x.shape[1]
        dy = np.broadcast_to((d_stacked[members, cat] / n_rows)[:, None], block_cache.x.shape)
        _, block_grads = block_backward(params.category_blocks[cat], block_cache, dy)
        add(f"cat{cat:02d}.", block_grads)
    return grads


def _encode_batch(ids: Sequence[str], dataset: SupportsPairs, table: EmbeddingTable,
                  params: EncoderParams) -> tuple[np.ndarray, np.ndarray, EncodeCache]:
    """Encode the distinct ids once, as one batch; returns the vector of each
    entry of ``ids``, the row of its distinct method, and the batch cache."""
    distinct, rows = np.unique(np.array(ids), return_inverse=True)
    vectors, _, cache = encode_methods(
        [dataset.methods[mid] for mid in distinct], table, params, want_cache=True
    )
    return vectors[rows], rows, cache


def _encoder_grads(params: EncoderParams, cache: EncodeCache, rows: np.ndarray,
                   row_grads: np.ndarray) -> dict[str, np.ndarray]:
    """Encoder gradients from dL/dvector of each batch row, ``rows`` naming its method.

    A method that fills several rows gets the sum of their gradients
    (linearity), so the batch is backpropagated once.
    """
    dvecs = np.zeros((rows.max() + 1, D_MODEL))  # one row per distinct method
    np.add.at(dvecs, rows, row_grads)
    return encode_backward(params, cache, dvecs)


def _full_grads(
    tensors: Mapping[str, np.ndarray], partial: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    return {
        name: partial.get(name, np.zeros_like(arr)) for name, arr in tensors.items()
    }


# --- pretraining --------------------------------------------------------


@dataclass
class PretrainResult:
    params: EncoderParams
    epoch_losses: list[float]
    log: list[tuple[int, int, float]] = field(default_factory=list)  # (epoch, batch, loss)


def pretrain(
    dataset: SupportsPairs,
    table: EmbeddingTable,
    config: PretrainConfig | None = None,
    initial: EncoderParams | None = None,
) -> PretrainResult:
    """SupCon pretraining over clone classes; embeddings stay frozen.

    Mutates and returns ``initial`` when given, otherwise starts from a
    seeded initialization. Deterministic given (dataset, table, config).
    """
    config = config or PretrainConfig()
    config.validate()
    params = initial if initial is not None else init_params(config.seed)
    if config.epochs == 0:
        return PretrainResult(params=params, epoch_losses=[])

    classes = clone_classes(dataset.pairs)
    rng = np.random.default_rng(config.seed)
    tensors = params_tensors(params)
    state = OptimizerState.for_params(tensors)
    epoch_losses: list[float] = []
    log: list[tuple[int, int, float]] = []

    for epoch in range(config.epochs):
        batch_losses = []
        for batch_no, batch in enumerate(sample_batches(classes, config, rng)):
            loss = _pretrain_step(batch, dataset, table, params, tensors, state, config)
            batch_losses.append(loss)
            log.append((epoch, batch_no, loss))
        epoch_losses.append(float(np.mean(batch_losses)))
    return PretrainResult(params=params, epoch_losses=epoch_losses, log=log)


def _pretrain_step(
    batch: list[tuple[str, int]],
    dataset: SupportsPairs,
    table: EmbeddingTable,
    params: EncoderParams,
    tensors: Mapping[str, np.ndarray],
    state: OptimizerState,
    config: PretrainConfig,
) -> float:
    z, rows, cache = _encode_batch([mid for mid, _ in batch], dataset, table, params)
    labels = np.array([label for _, label in batch])
    loss, dz = supcon_loss(z, labels, config.temperature)
    grads = _encoder_grads(params, cache, rows, dz)
    rmsprop_step(tensors, _full_grads(tensors, grads), state, config)
    return loss


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
    np.savez(path, **head.tensors(), k=np.array(head.k))


def load_head(path) -> FineTuneHead:
    """Read a head written by ``save_head``.

    Raises FormatError for a file that is not an npz archive or holds
    pickled data, a missing key, a ``k`` not in HEAD_WIDTHS, a tensor whose
    shape disagrees with ``HEAD_WIDTHS[k]``, and a non-finite value.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise FormatError(f"head file {path} is a single array, not a head npz archive")
        with archive:
            k = int(archive["k"])
            if k not in HEAD_WIDTHS:
                raise FormatError(f"head file {path}: k = {k} is not one of {sorted(HEAD_WIDTHS)}")
            weights = [archive[f"l{i}.w"].astype(np.float64) for i in range(k)]
            biases = [archive[f"l{i}.b"].astype(np.float64) for i in range(k)]
    except KeyError as exc:
        raise FormatError(f"head file {path} is missing an entry ({exc.args[0]})") from exc
    except (TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"head file {path} is not a head npz archive: {exc}") from exc
    widths = HEAD_WIDTHS[k]
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != widths[i : i + 2] or b.shape != widths[i + 1 : i + 2]:
            raise FormatError(
                f"head file {path}: layer {i} shapes {w.shape}, {b.shape} do not match "
                f"widths {widths}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise FormatError(f"head file {path}: non-finite value in layer {i}")
    return FineTuneHead(weights=weights, biases=biases)


def init_head(k: int = 3, seed: int = 0) -> FineTuneHead:
    if k not in HEAD_WIDTHS:
        raise ValueError(f"k must be one of {sorted(HEAD_WIDTHS)}")
    widths = HEAD_WIDTHS[k]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(w.astype(np.float32).astype(np.float64))
        biases.append(np.zeros(fan_out))
    return FineTuneHead(weights=weights, biases=biases)


def head_forward(head: FineTuneHead, x: np.ndarray, want_cache: bool = False):
    """Logits for inputs (B, 200); ReLU between layers, none after the last."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != head.weights[0].shape[0]:
        raise ShapeMismatch(
            f"head input width {x.shape[1]} != {head.weights[0].shape[0]}"
        )
    activations = [x]
    pre_relus = []
    h = x
    last = len(head.weights) - 1
    for i, (w, b) in enumerate(zip(head.weights, head.biases)):
        h = h @ w + b
        if i != last:
            pre_relus.append(h)
            h = np.maximum(h, 0.0)
            activations.append(h)
    logits = h[0] if squeeze else h
    if want_cache:
        return logits, (activations, pre_relus)
    return logits


def head_backward(head: FineTuneHead, cache, dlogits: np.ndarray):
    activations, pre_relus = cache
    grads: dict[str, np.ndarray] = {}
    dh = np.asarray(dlogits, dtype=np.float64)
    if dh.ndim == 1:
        dh = dh[None, :]
    last = len(head.weights) - 1
    for i in range(last, -1, -1):
        grads[f"l{i}.w"] = activations[i].T @ dh
        grads[f"l{i}.b"] = dh.sum(axis=0)
        dh = dh @ head.weights[i].T
        if i > 0:
            dh = dh * (pre_relus[i - 1] > 0.0)
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


@dataclass
class FineTuneResult:
    params: EncoderParams
    head: FineTuneHead
    epoch_losses: list[float]


def finetune(
    params: EncoderParams,
    head: FineTuneHead,
    dataset: SupportsPairs,
    table: EmbeddingTable,
    config: FineTuneConfig | None = None,
) -> FineTuneResult:
    """Supervised pair training: both the encoder and the head are updated."""
    config = config or FineTuneConfig()
    config.validate()
    if head.k != config.layers:
        raise ValueError(f"head has {head.k} layers but config.layers = {config.layers}")
    pairs = list(dataset.pairs)
    if not pairs:
        raise DegenerateBatch("no pairs to fine-tune on")

    rng = np.random.default_rng(config.seed)
    enc_tensors = params_tensors(params)
    all_tensors = dict(enc_tensors)
    for name, arr in head.tensors().items():
        all_tensors[f"head.{name}"] = arr
    state = OptimizerState.for_params(all_tensors)

    epoch_losses: list[float] = []
    for _epoch in range(config.epochs):
        order = rng.permutation(len(pairs))
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            chunk = [pairs[i] for i in order[start : start + config.batch_size]]
            batch_losses.append(
                _finetune_step(chunk, dataset, table, params, head, all_tensors, state, config)
            )
        epoch_losses.append(float(np.mean(batch_losses)))
    return FineTuneResult(params=params, head=head, epoch_losses=epoch_losses)


def _finetune_step(
    chunk: Sequence[PairRecord],
    dataset: SupportsPairs,
    table: EmbeddingTable,
    params: EncoderParams,
    head: FineTuneHead,
    all_tensors: Mapping[str, np.ndarray],
    state: OptimizerState,
    config: FineTuneConfig,
) -> float:
    labels = np.array([p.label for p in chunk], dtype=np.int64)
    vectors, rows, cache = _encode_batch(
        [mid for p in chunk for mid in (p.id1, p.id2)], dataset, table, params
    )
    x = vectors.reshape(len(chunk), 2 * D_MODEL)  # each row: id1's vector, then id2's
    logits, head_cache = head_forward(head, x, want_cache=True)
    loss, dlogits = cross_entropy(logits, labels)
    dx, raw_head_grads = head_backward(head, head_cache, dlogits)

    grads = _encoder_grads(params, cache, rows, dx.reshape(-1, D_MODEL))
    for name, g in raw_head_grads.items():
        grads[f"head.{name}"] = g
    rmsprop_step(all_tensors, _full_grads(all_tensors, grads), state, config)
    return loss


def write_loss_csv(log: Sequence[tuple[int, int, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "batch", "loss"])
        for epoch, batch, loss in log:
            writer.writerow([epoch, batch, f"{loss:.10g}"])


@dataclass
class GradCheckReport:
    checked: int
    max_rel_err: float
    tol: float
    failures: list[tuple[str, tuple[int, ...], float, float, float]]

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(
    loss_fn: Callable[[Mapping[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]],
    params: Mapping[str, np.ndarray],
    tol: float = 1e-4,
    samples_per_tensor: int = 4,
    step: float = 1e-5,
    seed: int = 0,
) -> GradCheckReport:
    """Central-difference verification of analytic gradients.

    ``loss_fn(params)`` must return (loss, grads) computed from the live
    arrays in ``params``; coordinates are perturbed in place and restored.
    """
    _, grads = loss_fn(params)
    rng = np.random.default_rng(seed)
    checked = 0
    max_rel = 0.0
    failures = []
    for name in sorted(params):
        arr = params[name]
        size = arr.size
        n_samples = min(samples_per_tensor, size)
        picks = rng.choice(size, size=n_samples, replace=False)
        for flat_idx in picks:
            orig = arr.flat[flat_idx]
            arr.flat[flat_idx] = orig + step
            loss_plus, _ = loss_fn(params)
            arr.flat[flat_idx] = orig - step
            loss_minus, _ = loss_fn(params)
            arr.flat[flat_idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = float(grads[name].flat[flat_idx])
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            checked += 1
            max_rel = max(max_rel, rel)
            if rel >= tol:
                idx = np.unravel_index(flat_idx, arr.shape)
                failures.append((name, tuple(int(i) for i in idx), analytic, numeric, rel))
    return GradCheckReport(checked=checked, max_rel_err=max_rel, tol=tol, failures=failures)
