"""Disk configurations and the mutual-visibility (no-eclipse) test.

A configuration is a finite family of disjoint closed disks in the
plane.  Scattering quantities downstream assume that no disk meets the
convex hull of any other two, so every line of sight between two disks
clears the remaining obstacles; :func:`validate` checks exactly that and
reports every offending triple.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedInputError

CONFIG_FORMAT = "billiard-config/1"

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Disk:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class Configuration:
    """Immutable list of disks with cached coordinate arrays."""

    disks: tuple
    centers: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        disks = tuple(self.disks)
        object.__setattr__(self, "disks", disks)
        object.__setattr__(
            self, "centers", np.array([d.center for d in disks], dtype=float)
        )
        object.__setattr__(
            self, "radii", np.array([d.radius for d in disks], dtype=float)
        )

    @property
    def r(self) -> int:
        return len(self.disks)

    @property
    def d0(self) -> float:
        return min_separation(self)

    def to_dict(self) -> dict:
        return {
            "format": CONFIG_FORMAT,
            "disks": [
                {"center": [float(c[0]), float(c[1])], "radius": float(a)}
                for c, a in zip(self.centers, self.radii)
            ],
        }


def config_from_dict(obj) -> Configuration:
    """Build a :class:`Configuration` from parsed JSON, checking structure."""
    if not isinstance(obj, dict):
        raise MalformedInputError("configuration must be a JSON object")
    fmt = obj.get("format")
    if fmt != CONFIG_FORMAT:
        raise MalformedInputError(
            f"unsupported configuration format {fmt!r} (expected {CONFIG_FORMAT!r})"
        )
    raw = obj.get("disks")
    if not isinstance(raw, list) or len(raw) < 2:
        raise MalformedInputError("configuration needs at least 2 disks")
    disks = []
    for i, entry in enumerate(raw):
        try:
            center = np.asarray(entry["center"], dtype=float)
            radius = float(entry["radius"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"disk {i + 1}: bad center/radius") from exc
        if center.shape != (2,) or not np.all(np.isfinite(center)):
            raise MalformedInputError(f"disk {i + 1}: center must be a finite 2-vector")
        if not np.isfinite(radius) or radius <= 0.0:
            raise MalformedInputError(f"disk {i + 1}: radius must be positive")
        disks.append(Disk(center, radius))
    return Configuration(tuple(disks))


def load_config(path) -> Configuration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read configuration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"configuration {path} is not valid JSON: {exc}") from exc
    return config_from_dict(obj)


def save_config(config: Configuration, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_digest(config: Configuration) -> str:
    """Content hash of the canonical serialization (whitespace-independent)."""
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def boundary_point(config: Configuration, j: int, theta):
    """Point on the boundary of disk ``j`` (0-based) at polar angle ``theta``."""
    c = config.centers[j]
    a = config.radii[j]
    return c + a * np.array([np.cos(theta), np.sin(theta)])


def outward_normal(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def reflect(v, n):
    """Reflect velocity ``v`` in the line with unit normal ``n``."""
    v = np.asarray(v, dtype=float)
    n = np.asarray(n, dtype=float)
    return v - 2.0 * np.dot(v, n) * n


def min_separation(config: Configuration) -> float:
    """Smallest boundary-to-boundary gap over disk pairs."""
    c = config.centers
    a = config.radii
    best = np.inf
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            gap = np.linalg.norm(c[i] - c[j]) - a[i] - a[j]
            best = min(best, gap)
    return float(best)


def hull_gap(p, c1, a1, c2, a2) -> float:
    """Signed distance from point ``p`` to the convex hull of two disks.

    The hull is swept by the disks B((1-t)c1 + t c2, (1-t)a1 + t a2) for
    t in [0, 1], and the gap to the swept disk is convex in t, so a
    golden-section search finds the minimum to near machine precision.
    Negative return means ``p`` lies inside the hull.
    """
    p = np.asarray(p, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)

    def gap(t):
        c = (1.0 - t) * c1 + t * c2
        a = (1.0 - t) * a1 + t * a2
        return np.linalg.norm(p - c) - a

    lo, hi = 0.0, 1.0
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = gap(x1), gap(x2)
    for _ in range(90):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = gap(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = gap(x2)
    return float(min(f1, f2))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate` with every offending pair and triple."""

    ok: bool
    n_disks: int
    min_pair_gap: float
    min_triple_margin: float
    bad_pairs: tuple
    bad_triples: tuple
    reasons: tuple

    def summary(self) -> str:
        if self.ok:
            return (
                f"ok: {self.n_disks} disks, pair gap >= {self.min_pair_gap:.6g}, "
                f"visibility margin >= {self.min_triple_margin:.6g}"
            )
        return "; ".join(self.reasons)


def validate(config: Configuration, tol: float = 1e-9) -> ValidationReport:
    """Check disjointness and the no-eclipse condition.

    Parameters
    ----------
    config : Configuration
        At least two disks (fewer raises ``MalformedInputError``).
    tol : float
        Margins at or below ``tol`` count as violations.

    Returns
    -------
    ValidationReport
        ``ok`` is True only when there are at least three pairwise
        disjoint disks and, for every pair (i, j), every third disk k
        keeps a positive distance from the convex hull of disks i and j.
        Indices in the report are 1-based.
    """
    r = config.r
    if r < 2:
        raise MalformedInputError("validation needs at least 2 disks")

    reasons = []
    bad_pairs = []
    bad_triples = []

    min_pair = np.inf
    c = config.centers
    a = config.radii
    for i in range(r):
        for j in range(i + 1, r):
            gap = float(np.linalg.norm(c[i] - c[j]) - a[i] - a[j])
            min_pair = min(min_pair, gap)
            if gap <= tol:
                bad_pairs.append((i + 1, j + 1, gap))
                reasons.append(f"disks {i + 1} and {j + 1} overlap or touch (gap {gap:.6g})")

    if r < 3:
        reasons.append(f"need at least 3 disks, got {r}")

    min_triple = np.inf
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(r):
                if k == i or k == j:
                    continue
                margin = hull_gap(c[k], c[i], a[i], c[j], a[j]) - a[k]
                min_triple = min(min_triple, margin)
                if margin <= tol:
                    bad_triples.append((i + 1, j + 1, k + 1, float(margin)))
                    reasons.append(
                        f"disk {k + 1} blocks the line of sight between "
                        f"disks {i + 1} and {j + 1} (margin {margin:.6g})"
                    )

    ok = not reasons
    return ValidationReport(
        ok=ok,
        n_disks=r,
        min_pair_gap=float(min_pair),
        min_triple_margin=float(min_triple if np.isfinite(min_triple) else np.inf),
        bad_pairs=tuple(bad_pairs),
        bad_triples=tuple(bad_triples),
        reasons=tuple(reasons),
    )
