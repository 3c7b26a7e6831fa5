"""Disk configurations and the mutual-visibility (no-eclipse) test.

A configuration is a finite family of disjoint closed disks in the
plane.  Scattering quantities downstream assume that no disk meets the
convex hull of any other two, so every line of sight between two disks
clears the remaining obstacles; :func:`validate` checks exactly that and
reports every offending triple.

The hull of disks B(c1, a1) and B(c2, a2) is swept by the disks
B(c(t), a(t)) with c(t) = (1-t)c1 + t c2 and a(t) = (1-t)a1 + t a2 for
t in [0, 1], so the gap from a point p to it is the least value of
g(t) = |p - c(t)| - a(t) on [0, 1].  Put u = c2 - c1, L = |u|, let
(x, y) with y >= 0 be the coordinates of p - c1 along u and across it,
and sigma = (a2 - a1) / L.  Then g'(t) = 0 reads
(x - tL) / sqrt((x - tL)^2 + y^2) = -sigma, whose one solution for
|sigma| < 1 is t* = (x + sigma y / sqrt(1 - sigma^2)) / L (for y = 0
it is the kink of g at t = x / L).  g is convex, a norm of an affine
map minus an affine map, so its least value on [0, 1] is taken at t*
clamped to [0, 1]; :func:`hull_gap` also looks at both endpoints, which
costs nothing and absorbs rounding.  When L <= |a2 - a1| (one disk
inside the other, or concentric disks) g' keeps one sign, g is
monotone and only the endpoints count.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedInputError

CONFIG_FORMAT = "billiard-config/1"
VALIDATE_TOL = 1e-9  # pair gaps and visibility margins at or below it are violations


@dataclass(frozen=True)
class Disk:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class Configuration:
    """Immutable list of disks with cached coordinate arrays, the
    boundary-to-boundary gap of each disk pair (keyed by 0-based (i, j),
    i < j) and the least such gap ``d0``."""

    disks: tuple
    centers: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)
    pair_gaps: dict = field(init=False, repr=False)
    d0: float = field(init=False, repr=False)

    def __post_init__(self):
        disks = tuple(self.disks)
        c = np.array([d.center for d in disks], dtype=float)
        a = np.array([d.radius for d in disks], dtype=float)
        gaps = {
            (i, j): np.linalg.norm(c[i] - c[j]) - a[i] - a[j]
            for i in range(len(a))
            for j in range(i + 1, len(a))
        }
        object.__setattr__(self, "disks", disks)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", a)
        object.__setattr__(self, "pair_gaps", gaps)
        object.__setattr__(self, "d0", float(min(gaps.values(), default=np.inf)))

    @property
    def r(self) -> int:
        return len(self.disks)

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


def hull_gap(p, c1, a1, c2, a2) -> float:
    """Signed distance from point ``p`` to the convex hull of two disks.

    The hull is swept by the disks B(c(t), a(t)) with c(t) = (1-t)c1 + t c2
    and a(t) = (1-t)a1 + t a2 for t in [0, 1], so the gap is the least
    g(t) = |p - c(t)| - a(t) over [0, 1]; see the module docstring for the
    closed-form minimiser.  Negative return means ``p`` lies inside the hull.
    """
    p = np.asarray(p, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)

    def gap(t):
        return np.linalg.norm(p - (1.0 - t) * c1 - t * c2) - (1.0 - t) * a1 - t * a2

    ts = [0.0, 1.0]
    u = c2 - c1
    L = np.linalg.norm(u)
    if L > abs(a2 - a1):
        d = p - c1
        x = np.dot(d, u) / L
        y = abs(u[0] * d[1] - u[1] * d[0]) / L
        sigma = (a2 - a1) / L
        ts.append(min(max((x + sigma * y / np.sqrt(1.0 - sigma * sigma)) / L, 0.0), 1.0))
    return float(min(gap(t) for t in ts))


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


def validate(config: Configuration) -> ValidationReport:
    """Check disjointness and the no-eclipse condition.

    Parameters
    ----------
    config : Configuration
        At least two disks (fewer raises ``MalformedInputError``).

    Returns
    -------
    ValidationReport
        ``ok`` is True only when there are at least three pairwise
        disjoint disks and, for every pair (i, j), every third disk k
        keeps a positive distance from the convex hull of disks i and j.
        Gaps and margins at or below ``VALIDATE_TOL`` count as
        violations.  Indices in the report are 1-based.
    """
    r = config.r
    if r < 2:
        raise MalformedInputError("validation needs at least 2 disks")

    reasons = []
    bad_pairs = []
    bad_triples = []

    for (i, j), gap in config.pair_gaps.items():
        if gap <= VALIDATE_TOL:
            bad_pairs.append((i + 1, j + 1, float(gap)))
            reasons.append(f"disks {i + 1} and {j + 1} overlap or touch (gap {gap:.6g})")

    if r < 3:
        reasons.append(f"need at least 3 disks, got {r}")

    c = config.centers
    a = config.radii
    min_triple = np.inf
    for i, j in config.pair_gaps:
        for k in range(r):
            if k == i or k == j:
                continue
            margin = hull_gap(c[k], c[i], a[i], c[j], a[j]) - a[k]
            min_triple = min(min_triple, margin)
            if margin <= VALIDATE_TOL:
                bad_triples.append((i + 1, j + 1, k + 1, float(margin)))
                reasons.append(
                    f"disk {k + 1} blocks the line of sight between "
                    f"disks {i + 1} and {j + 1} (margin {margin:.6g})"
                )

    ok = not reasons
    return ValidationReport(
        ok=ok,
        n_disks=r,
        min_pair_gap=config.d0,
        min_triple_margin=float(min_triple if np.isfinite(min_triple) else np.inf),
        bad_pairs=tuple(bad_pairs),
        bad_triples=tuple(bad_triples),
        reasons=tuple(reasons),
    )
