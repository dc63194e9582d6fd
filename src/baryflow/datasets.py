"""Toy-data generators, synthetic domain-adaptation tasks, and CSV I/O.

All generators are deterministic under a fixed seed. The CSV schema is a
header row with feature columns f0..f{d-1} and an optional trailing "label"
column; floats are written with 17 significant digits so files round-trip
byte-identically through load/save.

Class names are a detail of the CSV format; measures carry class ids.
``load_csv`` returns a file's names beside its measure, ``share_classes``
maps a run's inputs to one sorted order of names, and ``save_csv`` writes
names back.
"""

from __future__ import annotations

import csv as _csv
from dataclasses import dataclass

import numpy as np

from .gaussian import _check_factors
from .measures import EmpiricalMeasure, _freeze

__all__ = [
    "AffineMap",
    "DomainSpec",
    "MsdaData",
    "swiss_roll",
    "location_scatter_family",
    "default_affine_family",
    "pd_affine_family",
    "synthetic_domain_specs",
    "synthetic_msda",
    "load_csv",
    "save_csv",
    "share_classes",
    "write_table",
]


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b. Ground-truth experiments require A symmetric PD."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError("A must be (d, d) and b length d")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("affine map contains non-finite entries")
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @property
    def symmetric_pd(self) -> bool:
        if not np.allclose(self.a, self.a.T):
            return False
        return bool(np.linalg.eigvalsh((self.a + self.a.T) / 2).min() > 0)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.a.T + self.b

    @staticmethod
    def identity(d: int) -> "AffineMap":
        return AffineMap(np.eye(d), np.zeros(d))


@dataclass(frozen=True)
class DomainSpec:
    """Class-conditional Gaussian domain shifted by an affine map."""

    class_means: np.ndarray
    class_chols: np.ndarray
    shift: AffineMap
    n_samples: int

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.class_means, dtype=float))
        chols = _check_factors(means, np.asarray(self.class_chols, dtype=float))
        c, d = means.shape
        if self.shift.dim != d:
            raise ValueError("shift dimension does not match class means")
        if self.n_samples < c:
            raise ValueError("need at least one sample per class")
        object.__setattr__(self, "class_means", _freeze(means))
        object.__setattr__(self, "class_chols", _freeze(chols))

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


@dataclass(frozen=True)
class MsdaData:
    """Sources with labels; the target's labels are held out for evaluation."""

    sources: tuple
    target_features: EmpiricalMeasure
    target_labels: np.ndarray


def swiss_roll(n: int, noise_std: float = 0.0, seed=None,
               n_classes: int = 4) -> EmpiricalMeasure:
    """2-D spiral (t cos t, t sin t), t uniform on [1.5 pi, 4.5 pi].

    Labels are quantile bins of the manifold parameter t, so they are
    monotone along the spiral.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    pts = np.column_stack([t * np.cos(t), t * np.sin(t)])
    if noise_std > 0:
        pts = pts + noise_std * rng.standard_normal(pts.shape)
    edges = np.quantile(t, np.linspace(0, 1, n_classes + 1)[1:-1])
    labels = np.digitize(t, edges)
    return EmpiricalMeasure.from_hard_labels(pts, labels, n_classes)


def location_scatter_family(q0, maps) -> list:
    """Pushforwards of one measure under affine maps, labels carried over."""
    if any(m.dim != q0.dim for m in maps):
        raise ValueError("map dimension does not match the measure")
    return [EmpiricalMeasure(m.apply(q0.points), q0.weights, q0.label_logits)
            for m in maps]


def _rotation(deg: float) -> np.ndarray:
    th = np.deg2rad(deg)
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


def default_affine_family(k: int = 4, seed=0) -> list[AffineMap]:
    """2-D family: rotations of 0/45/90/135 degrees composed with scalings
    in [0.8, 1.3] and unit-norm shifts. Qualitative runs only (not PD)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    angles = [0.0, 45.0, 90.0, 135.0]
    maps = []
    for i in range(k):
        s = rng.uniform(0.8, 1.3)
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        maps.append(AffineMap(s * _rotation(angles[i % 4]), direction))
    return maps


# Eigenvalue range of the maps pd_affine_family draws.
PD_EIG_RANGE = (0.7, 1.4)


def pd_affine_family(k: int, dim: int = 2, seed=0, shift_scale: float = 1.0
                     ) -> list[AffineMap]:
    """Random symmetric-PD maps, eigenvalues uniform in PD_EIG_RANGE; keeps
    pushforward families inside the location-scatter class so Gaussian
    barycenter oracles apply."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eig = rng.uniform(*PD_EIG_RANGE, size=dim)
        a = (q * eig) @ q.T
        b = shift_scale * rng.standard_normal(dim)
        maps.append(AffineMap((a + a.T) / 2, b))
    return maps


def synthetic_domain_specs(n_classes: int = 3, dim: int = 2, k_sources: int = 2,
                           n_samples: int = 256, class_sep: float = 5.0,
                           class_std: float = 0.8,
                           target_rotation_deg: float = 35.0,
                           source_spread_deg: float = 80.0,
                           source_jitter: float = 0.15, seed=0
                           ) -> list[DomainSpec]:
    """K+1 domain specs: a rotation family of class-conditional Gaussians.

    Sources are rotations of one base layout spread across
    target_rotation_deg +/- source_spread_deg/2; the target (last spec) sits
    at target_rotation_deg. The first two classes share a radius and are
    separated by source_spread_deg/2 degrees, so each source's class 1
    lands on the target's class 0 position (a source-only nearest-neighbor
    classifier breaks), and the identity-vs-swapped matching of the two
    counter-rotated sources is a near-tie that only label information
    resolves. Remaining classes sit at smaller radii on the far side.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if k_sources < 1:
        raise ValueError("k_sources must be >= 1")
    rng = np.random.default_rng(seed)
    gap = source_spread_deg / 2.0
    angles = [0.0, gap]
    radii = [class_sep, class_sep]
    for c in range(2, n_classes):
        angles.append(200.0 + (c - 2) * 60.0)
        radii.append(class_sep * (0.5 + 0.15 * (c - 2)))
    means = np.zeros((n_classes, dim))
    for c in range(n_classes):
        means[c, 0] = radii[c] * np.cos(np.deg2rad(angles[c]))
        means[c, 1] = radii[c] * np.sin(np.deg2rad(angles[c]))
    chols = np.repeat(class_std * np.eye(dim)[None], n_classes, axis=0)

    if k_sources == 1:
        source_angles = [target_rotation_deg - source_spread_deg / 2.0]
    else:
        source_angles = target_rotation_deg + np.linspace(
            -0.5, 0.5, k_sources) * source_spread_deg
    specs = []
    for ang in source_angles:
        a = np.eye(dim)
        a[:2, :2] = _rotation(float(ang))
        b = source_jitter * rng.standard_normal(dim)
        specs.append(DomainSpec(means, chols, AffineMap(a, b), n_samples))
    rot = np.eye(dim)
    rot[:2, :2] = _rotation(target_rotation_deg)
    specs.append(DomainSpec(means, chols, AffineMap(rot, np.zeros(dim)), n_samples))
    return specs


def synthetic_msda(specs, seed=0) -> MsdaData:
    """Draw labeled domains from the specs; last spec is the target.

    Target labels are returned separately and must only be used to score
    predictions.
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("need at least one source spec and one target spec")
    c0, d0 = specs[0].n_classes, specs[0].dim
    if any(s.n_classes != c0 or s.dim != d0 for s in specs):
        raise ValueError("all domain specs must share n_classes and dim")
    rng = np.random.default_rng(seed)

    domains = []
    for spec in specs:
        labels = rng.integers(0, spec.n_classes, size=spec.n_samples)
        eps = rng.standard_normal((spec.n_samples, spec.dim))
        pts = spec.class_means[labels] + np.einsum(
            "nij,nj->ni", spec.class_chols[labels], eps)
        pts = spec.shift.apply(pts)
        domains.append((pts, labels))

    sources = tuple(
        EmpiricalMeasure.from_hard_labels(pts, labels, c0)
        for pts, labels in domains[:-1])
    tgt_pts, tgt_labels = domains[-1]
    return MsdaData(sources, EmpiricalMeasure(tgt_pts), tgt_labels)


def write_table(path, header, rows) -> None:
    """Write ``rows`` as CSV under ``header``: floats with 17 significant
    digits, every other cell as it is."""
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v
                          for v in row] for row in rows)


def save_csv(measure, path, class_names=None) -> None:
    """Write a measure as CSV (features f0.., optional label column); the
    label of class id c is ``class_names[c]``, or c itself without names."""
    header = [f"f{i}" for i in range(measure.points.shape[1])]
    rows = measure.points.tolist()
    if measure.label_logits is not None:
        header.append("label")
        for row, c in zip(rows, measure.hard_labels().tolist()):
            row.append(class_names[c] if class_names else c)
    write_table(path, header, rows)


def load_csv(path, label_column: str | None = None):
    """Load (measure, class names) from CSV, labeled by ``label_column``.

    Integer labels are class ids, and must be written canonically: ``1``,
    not ``01``, ``+1`` or ``1`` with spaces, else the file is rejected.
    Categorical labels are mapped to contiguous ids in the sorted order of
    this file's names, returned one per id (None for an unlabeled file or
    integer labels); ``share_classes`` maps a run's files into one order.
    """
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty measure (no data rows)")

    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise ValueError(
                f"{path}: label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
    feat_idx = [i for i in range(len(header)) if i != label_idx]

    feats = np.empty((len(rows), len(feat_idx)))
    raw_labels = []
    for r, row in enumerate(rows):
        line_no = r + 2  # header is line 1
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line_no}: expected {len(header)} fields, "
                f"got {len(row)}")
        for j, i in enumerate(feat_idx):
            try:
                feats[r, j] = float(row[i])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: non-numeric feature value "
                    f"{row[i]!r} in column {header[i]!r}") from None
        if label_idx is not None:
            raw_labels.append(row[label_idx])

    if label_idx is None:
        return EmpiricalMeasure(feats), None

    uniq = sorted(set(raw_labels))
    all_int = all(_is_int(v) for v in uniq)
    if all_int:
        for v in uniq:
            if str(int(v)) != v:
                raise ValueError(f"{path}: label {v!r} is not a canonical "
                                 f"integer class id (write it {int(v)})")
        ids = np.array([int(v) for v in raw_labels])
        n_classes = int(ids.max()) + 1
        names = None
    else:
        mapping = {v: i for i, v in enumerate(uniq)}
        ids = np.array([mapping[v] for v in raw_labels])
        n_classes = len(uniq)
        names = tuple(uniq)
    return EmpiricalMeasure.from_hard_labels(feats, ids, n_classes), names


def share_classes(inputs, names, wheres) -> tuple[list, tuple | None]:
    """The inputs of one run with one class mapping, and its class names.

    ``inputs`` are measures or mixtures, ``names[i]`` the names ``load_csv``
    gave ``inputs[i]`` and ``wheres[i]`` how errors name it. Each named
    input is mapped into the sorted union of all names, returned beside the
    inputs (None when no input is named); other inputs are returned as they
    are. Named inputs mixed with integer-labeled ones raise ValueError.
    """
    named = [w for n, w in zip(names, wheres) if n is not None]
    numbered = [w for x, n, w in zip(inputs, names, wheres)
                if n is None and x.n_classes is not None]
    if named and numbered:
        raise ValueError(f"{named[0]} has class names but {numbered[0]} has "
                         "integer labels; the inputs of a run need one kind")
    union = tuple(sorted({c for n in names for c in n or ()}))
    ids = {c: i for i, c in enumerate(union)}
    out = []
    for x, n in zip(inputs, names):
        if n in (None, union):
            out.append(x)
            continue
        remap = np.array([ids[c] for c in n])
        out.append(EmpiricalMeasure.from_hard_labels(
            x.points, remap[x.hard_labels()], len(union), x.weights))
    return out, union or None


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False
