"""Spherical geometry for declination-zone indexing.

All angles are degrees. The sky is cut into horizontal declination stripes
("zones") of fixed height h; zone k covers [k*h - 90, (k+1)*h - 90), with the
last zone closed at +90 so every declination belongs to exactly one zone.
Neighborhood queries restrict work to the zones a declination band can touch,
plus a right-ascension half-width wide enough to be complete at that
declination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_ZONE_HEIGHT_DEG",
    "SkyPoint",
    "ZoneConfig",
    "normalize_ra",
    "zone_of",
]

DEFAULT_ZONE_HEIGHT_DEG = 4.0 / 60.0  # 4 arcminutes

# Smallest allowed zone height, 1 arcsecond (648,000 zones). Smaller heights
# blow up the zone offset table (0.001" would need 6.5e8 entries). At 1" the
# sort key zone * 512 + ra stays below 3.3e8 and so resolves ra to 6e-8 deg,
# inside the 1e-7 deg pad of the candidate windows; at 0.6" it would not.
MIN_ZONE_HEIGHT_DEG = 1.0 / 3600.0

# A zone id is a plain int in [0, ZoneConfig.zone_count).
ZoneId = int


def normalize_ra(ra: float) -> float:
    """Wrap a right ascension into [0, 360)."""
    if not math.isfinite(ra):
        raise ValueError(f"ra must be finite, got {ra!r}")
    wrapped = ra % 360.0
    # x % 360.0 can round to exactly 360.0 for tiny negative x
    return 0.0 if wrapped >= 360.0 else wrapped


def normalize_ra_array(ra: np.ndarray) -> np.ndarray:
    """Vector form of :func:`normalize_ra`; same results, in a new array.

    For ra in [0, 360), ``ra % 360`` is ra itself, with -0.0 made 0.0 as
    ``ra + 0.0`` makes it; only the other values pay for the modulo."""
    wrapped = ra + 0.0
    outside = ~((ra >= 0.0) & (ra < 360.0))
    if outside.any():
        rest = np.mod(ra[outside], 360.0)
        rest[rest >= 360.0] = 0.0
        wrapped[outside] = rest
    return wrapped


@dataclass(frozen=True)
class SkyPoint:
    """A position on the celestial sphere, in degrees.

    ra is normalized into [0, 360) at construction. dec outside [-90, +90]
    is an error rather than a wrap: wrapping declination is ambiguous
    because crossing a pole changes ra.
    """

    ra: float
    dec: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.dec <= 90.0):
            raise ValueError(f"dec {self.dec!r} outside [-90, +90]")
        object.__setattr__(self, "ra", normalize_ra(self.ra))


@dataclass(frozen=True)
class ZoneConfig:
    """Zone layout: stripe height in degrees plus the derived zone count.

    The height must be finite and at least MIN_ZONE_HEIGHT_DEG.
    """

    height_deg: float = DEFAULT_ZONE_HEIGHT_DEG
    zone_count: int = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.height_deg) and self.height_deg >= MIN_ZONE_HEIGHT_DEG):
            raise ValueError(
                f"zone height must be a finite angle of at least 1 arcsec "
                f"({MIN_ZONE_HEIGHT_DEG!r} deg), got {self.height_deg!r}"
            )
        raw = 180.0 / self.height_deg
        # ceil with a relative guard: an exact divisor (e.g. h = 4') must not
        # gain a sliver zone from float noise in the quotient
        count = math.ceil(raw * (1.0 - 1e-12))
        object.__setattr__(self, "zone_count", max(int(count), 1))


def check_same_zones(a: ZoneConfig, b: ZoneConfig) -> None:
    """Raise ValueError unless two catalogs share one zone layout, as every
    query or report over both needs."""
    if a != b:
        raise ValueError(f"catalogs use different zone configurations: {a} vs {b}")


def zone_of(dec: float, cfg: ZoneConfig) -> ZoneId:
    """Zone index containing declination ``dec``: floor((dec + 90) / h).

    A raw zone past the last one (at dec = +90, or within rounding of it) is
    clamped into the last zone; no dec in range lands below zone 0.
    """
    if not (-90.0 <= dec <= 90.0):
        raise ValueError(f"dec {dec!r} outside [-90, +90]")
    z = math.floor((dec + 90.0) / cfg.height_deg)
    return z if z < cfg.zone_count else cfg.zone_count - 1


def zone_of_array(dec: np.ndarray, cfg: ZoneConfig) -> np.ndarray:
    """Vector form of :func:`zone_of`; identical arithmetic per element."""
    z = np.floor((dec + 90.0) / cfg.height_deg).astype(np.int64)
    # np.maximum/np.minimum: a few microseconds cheaper than np.clip per call
    return np.minimum(np.maximum(z, 0), cfg.zone_count - 1)


def separation_deg(
    ra1: np.ndarray | float,
    dec1: np.ndarray | float,
    ra2: np.ndarray | float,
    dec2: np.ndarray | float,
) -> np.ndarray | np.floating:
    """Great-circle separation in degrees, broadcast-friendly.

    Up to 90 degrees this is the haversine, 2 * asin(sqrt(h)), stable at the
    arcsecond separations match radii live at, where the dot-product/acos
    form loses about half the significand. Beyond 90 degrees (h > 0.5), where
    asin is ill-conditioned as h nears 1, it is 180 - 2 * asin(sqrt(g)) with
    g = 1 - h = sin^2((phi1 + phi2) / 2) + cos phi1 cos phi2 cos^2(dlambda / 2),
    a sum of non-negative terms; that keeps the error within 1e-12 degrees
    up to the antipode. g is computed only when some h > 0.5, and every
    separation up to 90 degrees is the haversine's to the last bit. The sqrt
    arguments are clamped at 1 so rounding cannot leave the asin domain.
    """
    phi1 = np.radians(dec1)
    phi2 = np.radians(dec2)
    cos_cos = np.cos(phi1) * np.cos(phi2)
    sd = np.sin(0.5 * np.radians(np.subtract(dec2, dec1)))
    half_dra = 0.5 * np.radians(np.subtract(ra2, ra1))
    sr = np.sin(half_dra)
    h = sd * sd + cos_cos * (sr * sr)
    sep = 2.0 * np.degrees(np.arcsin(np.minimum(1.0, np.sqrt(h))))
    if h.max(initial=0.0) <= 0.5:
        return sep
    sm = np.sin(0.5 * (phi1 + phi2))
    cr = np.cos(half_dra)
    g = sm * sm + cos_cos * (cr * cr)
    far = 180.0 - 2.0 * np.degrees(np.arcsin(np.minimum(1.0, np.sqrt(g))))
    return np.where(h > 0.5, far, sep)[()]


def ra_halfwidth_array(radius: float, dec: np.ndarray) -> np.ndarray:
    """Half-widths of ra windows containing everything within ``radius`` of
    points at declinations ``dec``.

    Deliberately conservative: r / cos(|dec| + r) over-covers, and the exact
    separation filter downstream removes false candidates, so completeness is
    the only hard requirement here. A width is 180 (full circle) once the cap
    touches a pole (|dec| + radius >= 90).
    """
    reach = np.abs(dec) + radius
    return np.where(reach < 90.0, np.minimum(radius / np.cos(np.radians(reach)), 180.0), 180.0)


def ra_halfwidth(radius: float, dec: float) -> float:
    """Scalar form of :func:`ra_halfwidth_array`; same arithmetic, same
    result, for the one centre of a cone."""
    reach = abs(dec) + radius
    return min(radius / math.cos(math.radians(reach)), 180.0) if reach < 90.0 else 180.0
