"""Seeded synthetic catalogs: uniform-on-sphere positions within a footprint.

Declination is drawn with density proportional to cos(dec) (uniform measure
on the sphere), ra uniform. The clustered footprint puts equal object shares
into a few narrow declination stripes, which is what makes contiguous zone
assignments visibly lopsided.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .catalog import ZoneIndex, _write_csv, build_index
from .sphere import ZoneConfig

__all__ = [
    "FullSky",
    "DecBand",
    "Clustered",
    "Footprint",
    "BandSpec",
    "SyntheticSpec",
    "generate_columns",
    "generate_index",
    "write_csv",
]


@dataclass(frozen=True)
class FullSky:
    pass


@dataclass(frozen=True)
class DecBand:
    """A declination band [lo, hi], degrees."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lo <= self.hi <= 90.0:
            raise ValueError(f"bad dec band [{self.lo!r}, {self.hi!r}]")


@dataclass(frozen=True)
class Clustered:
    """Several stripes sharing the object count equally (remainder to the
    earlier stripes)."""

    stripes: tuple[DecBand, ...]

    def __post_init__(self) -> None:
        if not self.stripes:
            raise ValueError("clustered footprint needs at least one stripe")


Footprint = Union[FullSky, DecBand, Clustered]


@dataclass(frozen=True)
class BandSpec:
    """Magnitudes for one band drawn uniformly from [lo, hi]."""

    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class SyntheticSpec:
    count: int
    footprint: Footprint = FullSky()
    bands: tuple[BandSpec, ...] = (BandSpec("r", 5.0, 15.0),)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


def _sample_dec(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    # uniform in sin(dec) <=> density proportional to cos(dec)
    z = rng.uniform(np.sin(np.radians(lo)), np.sin(np.radians(hi)), n)
    return np.degrees(np.arcsin(z))


def generate_columns(
    spec: SyntheticSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (ids, ra, dec, mags) columns for a spec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.count
    ids = np.arange(n, dtype=np.uint64)
    ra = rng.uniform(0.0, 360.0, n)
    fp = spec.footprint
    if isinstance(fp, FullSky):
        dec = _sample_dec(rng, n, -90.0, 90.0)
    elif isinstance(fp, DecBand):
        dec = _sample_dec(rng, n, fp.lo, fp.hi)
    elif isinstance(fp, Clustered):
        k = len(fp.stripes)
        base, extra = divmod(n, k)
        parts = []
        for i, stripe in enumerate(fp.stripes):
            share = base + 1 if i < extra else base
            parts.append(_sample_dec(rng, share, stripe.lo, stripe.hi))
        dec = np.concatenate(parts) if parts else np.empty(0)
    else:
        raise TypeError(f"unknown footprint {fp!r}")
    mags = np.column_stack(
        [rng.uniform(b.lo, b.hi, n) for b in spec.bands]
    ) if spec.bands else np.empty((n, 0))
    return ids, ra, dec, mags


def generate_index(
    spec: SyntheticSpec, name: str = "synthetic", cfg: ZoneConfig = ZoneConfig()
) -> ZoneIndex:
    """Generate straight into a zone index, skipping the CSV round trip."""
    ids, ra, dec, mags = generate_columns(spec)
    return build_index(name, cfg, ids, ra, dec, mags, [b.name for b in spec.bands])


def write_csv(spec: SyntheticSpec, path: str | Path) -> None:
    """Write a catalog CSV in the ingest format; same spec, same bytes."""
    ids, ra, dec, mags = generate_columns(spec)
    header = "id,ra,dec" + "".join(f",{b.name}" for b in spec.bands) + "\n"
    row_format = "%d,%r,%r" + ",%r" * len(spec.bands) + "\n"
    _write_csv(path, header, row_format, (ids, ra, dec, *mags.T))
