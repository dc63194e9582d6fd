"""Core measure types and simplex/label utilities.

Measures are immutable value objects: arrays are copied on construction and
marked read-only, so one instance can be shared by every holder.
An empirical measure is labeled or not: labels are an optional field, stored
as unconstrained logits; soft labels are recovered with a row-wise softmax
and hard labels with an argmax (ties broken by lowest index). Measures,
batches and mixtures all answer ``n_classes`` (None when unlabeled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BarycentricCoordinates",
    "EmpiricalMeasure",
    "MiniBatch",
    "validate_simplex",
    "one_hot",
    "softmax",
    "logsumexp",
    "softmax_decode",
    "logits_from_probs",
    "logits_from_labels",
]

# Offset used when converting one-hot / probability labels to logits, so the
# flow can move them away from the simplex boundary.
LABEL_EPS = 1e-6


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    """A read-only copy of ``a`` (float unless ``dtype`` says otherwise):
    how every value type stores arrays."""
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def validate_simplex(v: np.ndarray, tol: float = 1e-9) -> bool:
    """Return True iff ``v``, or each row of a matrix ``v``, lies on the
    probability simplex within ``tol``.

    Raises ValueError on non-finite input.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("simplex vector contains non-finite entries")
    return bool(np.all(v >= -tol)
                and np.all(np.abs(v.sum(axis=-1) - 1.0) <= tol))


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot encode integer labels into an (n, n_classes) matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer vector")
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == labels.astype(int)):
            raise ValueError("labels must be integers")
        labels = labels.astype(int)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes - 1}], got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    logits = np.asarray(logits, dtype=float)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, computed as
    max + log(sum(exp(x - max))); an all -inf slice gives -inf."""
    x = np.asarray(x, dtype=float)
    mx = x.max(axis=axis, keepdims=True)
    finite = np.isfinite(mx)
    if finite.all():
        return mx.squeeze(axis) + np.log(np.exp(x - mx).sum(axis=axis))
    # an infinite max shifts by 0, so an all -inf slice sums to 0
    mx = np.where(finite, mx, 0.0)
    with np.errstate(divide="ignore"):
        return mx.squeeze(axis) + np.log(np.exp(x - mx).sum(axis=axis))


def softmax_decode(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode logits into (soft, hard) labels.

    ``soft`` rows lie on the simplex; ``hard[i]`` is the argmax of row i with
    ties broken by the lowest class index.
    """
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite entries")
    soft = softmax(logits)
    hard = np.argmax(soft, axis=-1)
    return soft, hard


def logits_from_probs(probs: np.ndarray, eps: float = LABEL_EPS) -> np.ndarray:
    """Convert simplex rows to logits via log(p * (1 - C*eps) + eps)."""
    probs = np.asarray(probs, dtype=float)

    n_classes = probs.shape[-1]
    return np.log(probs * (1.0 - n_classes * eps) + eps)


def logits_from_labels(labels: np.ndarray, n_classes: int,
                       eps: float = LABEL_EPS) -> np.ndarray:
    """Logits encoding hard integer labels (one-hot pushed off the boundary)."""
    return logits_from_probs(one_hot(labels, n_classes), eps=eps)


@dataclass(frozen=True)
class BarycentricCoordinates:
    """Nonnegative weights over the K input measures, summing to one."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if lam.ndim != 1 or not validate_simplex(lam, tol=1e-12):
            raise ValueError("barycentric coordinates must be a 1-D vector "
                             "on the simplex")
        object.__setattr__(self, "lam", _freeze(lam))

    @staticmethod
    def uniform(k: int) -> "BarycentricCoordinates":
        if k < 1:
            raise ValueError("need at least one coordinate")
        return BarycentricCoordinates(np.full(k, 1.0 / k))

    def __len__(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted particle cloud: (n, d) support points and simplex weights,
    with optional (n, C) label logits. Weights default to uniform 1/n.
    """

    points: np.ndarray
    weights: np.ndarray | None = None
    label_logits: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a non-empty (n, d) matrix, d >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],):
                raise ValueError("weights must have one entry per point")
            if not validate_simplex(w, tol=1e-9):
                raise ValueError("weights must lie on the simplex")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))
        if self.label_logits is not None:
            logits = np.asarray(self.label_logits, dtype=float)
            if logits.ndim != 2 or logits.shape[0] != pts.shape[0]:
                raise ValueError(f"label_logits must be ({pts.shape[0]}, C), "
                                 f"got {logits.shape}")
            if not np.all(np.isfinite(logits)):
                raise ValueError("label_logits contain non-finite entries")
            object.__setattr__(self, "label_logits", _freeze(logits))

    @staticmethod
    def from_hard_labels(points, labels, n_classes,
                         weights=None) -> "EmpiricalMeasure":
        return EmpiricalMeasure(points, weights,
                                logits_from_labels(labels, n_classes))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> int | None:
        return None if self.label_logits is None else self.label_logits.shape[1]

    def soft_labels(self) -> np.ndarray:
        return softmax_decode(self._logits())[0]

    def hard_labels(self) -> np.ndarray:
        return softmax_decode(self._logits())[1]

    def _logits(self) -> np.ndarray:
        if self.label_logits is None:
            raise ValueError("the measure is unlabeled")
        return self.label_logits


@dataclass(frozen=True)
class MiniBatch:
    """A sampled batch from one input measure; ``labels`` rows, when
    present, are one-hot vectors."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("batch points must be a non-empty (m, d) matrix, "
                             "d >= 1")
        object.__setattr__(self, "points", _freeze(pts))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=float)
            if lab.ndim != 2 or lab.shape[0] != pts.shape[0]:
                raise ValueError("labels must be an (m, C) matrix")
            is_one_hot = (
                np.all((lab == 0.0) | (lab == 1.0))
                and np.all(lab.sum(axis=1) == 1.0)
            )
            if not is_one_hot:
                raise ValueError("batch label rows must be one-hot vectors")
            object.__setattr__(self, "labels", _freeze(lab))

    @property
    def n_classes(self) -> int | None:
        return None if self.labels is None else self.labels.shape[1]
