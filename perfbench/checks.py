"""Output checks, run outside the timed region.

Separations are recomputed here with a formula of our own (Vincenty's
atan2 form) rather than zonequery's haversine, so a shared bug cannot hide.
The two formulas agree to a few ulps; the tolerances below allow for that
and for the 12 significant digits the CLI prints, nothing more.
"""

from __future__ import annotations

import re
import zipfile
from pathlib import Path

import numpy as np

# %.12g keeps 12 significant digits: relative rounding error <= 5e-12
TEXT_RTOL = 6e-12
# independent formula versus the program's, near the radius boundary
EDGE_RTOL = 1e-12


def separation_deg(ra1, dec1, ra2, dec2):
    """Great-circle separation in degrees, Vincenty form.

    Differences are taken in degrees before conversion, so close pairs keep
    full relative precision; the latitude term is written as
    sin(dphi) + 2 sin(phi1) cos(phi2) sin^2(dlam/2) to avoid cancellation.
    """
    p1 = np.radians(dec1)
    p2 = np.radians(dec2)
    dphi = np.radians(np.subtract(dec2, dec1))
    dlam = np.radians(np.subtract(ra2, ra1))
    cp2 = np.cos(p2)
    half = np.sin(0.5 * dlam)
    x = np.sin(dphi) + 2.0 * np.sin(p1) * cp2 * half * half
    y = cp2 * np.sin(dlam)
    z = np.sin(p1) * np.sin(p2) + np.cos(p1) * cp2 * np.cos(dlam)
    return np.degrees(np.arctan2(np.hypot(x, y), z))


class Catalog:
    """Ground-truth columns of a generated input, looked up by id."""

    def __init__(self, ids: np.ndarray, ra: np.ndarray, dec: np.ndarray) -> None:
        order = np.argsort(ids, kind="stable")
        self.ids = np.asarray(ids)[order]
        self.ra = np.asarray(ra)[order]
        self.dec = np.asarray(dec)[order]

    def positions(self, ids: np.ndarray) -> np.ndarray | None:
        """Row positions of ``ids``, or None if any id is unknown."""
        pos = np.searchsorted(self.ids, ids)
        if len(ids) and (pos.max() >= len(self.ids) or not np.array_equal(self.ids[pos], ids)):
            return None
        return pos

    def within(self, ra: float, dec: float, radius: float):
        """Exhaustive pass: (ids certainly inside, ids possibly inside).

        Every row is tested; a separation is never smaller than the
        declination difference, so only rows within ``radius`` in dec (with
        a wide margin) need the full formula.
        """
        near = np.nonzero(np.abs(self.dec - dec) <= radius * (1.0 + 1e-9) + 1e-12)[0]
        sep = separation_deg(ra, dec, self.ra[near], self.dec[near])
        sure = self.ids[near[sep <= radius * (1.0 - EDGE_RTOL)]]
        maybe = self.ids[near[sep <= radius * (1.0 + EDGE_RTOL)]]
        return sure, maybe


def _matches_text(text_sep: np.ndarray, exact: np.ndarray) -> bool:
    return bool(np.all(np.abs(text_sep - exact) <= TEXT_RTOL * exact))


def _pairs_ok(found: np.ndarray, sure: np.ndarray, maybe: np.ndarray) -> bool:
    """``found`` holds every sure id and nothing outside ``maybe``."""
    return bool(np.isin(sure, found).all() and np.isin(found, maybe).all())


def check_xmatch_csv(
    path: Path,
    leading: Catalog,
    other: Catalog,
    radius: float,
    rng: np.random.Generator,
    samples: int,
) -> list[str]:
    """Problems found in an ``xmatch`` CSV; empty when it is correct.

    Every row: both ids exist, the separation recomputed from the inputs is
    within the radius and equals the printed value to its 12 digits. Rows
    are in canonical (leading_id, other_id) order without repeats. For a
    seeded sample of leading objects (half drawn from the output, half from
    the whole catalog) an exhaustive pass over the other catalog must give
    exactly the pairs written.
    """
    data = path.read_bytes()
    header, _, body = data.partition(b"\n")
    if header != b"leading_id,other_id,separation_deg":
        return [f"bad header {header[:60]!r}"]
    if body and not body.endswith(b"\n"):
        return ["last row is not terminated"]
    fields = body.replace(b"\n", b",").split(b",")[:-1] if body else []
    if len(fields) % 3:
        return ["a row does not have three fields"]
    try:
        table = np.array(fields, dtype=object).reshape(-1, 3)
        lead_ids = table[:, 0].astype(np.uint64)
        other_ids = table[:, 1].astype(np.uint64)
        seps = table[:, 2].astype(np.float64)
    except (ValueError, OverflowError) as exc:
        return [f"unparseable row: {exc}"]

    problems = []
    same = lead_ids[1:] == lead_ids[:-1]
    if np.any(lead_ids[1:] < lead_ids[:-1]) or np.any(same & (other_ids[1:] <= other_ids[:-1])):
        problems.append("rows not in strictly ascending (leading_id, other_id) order")
    lp = leading.positions(lead_ids)
    op = other.positions(other_ids)
    if lp is None or op is None:
        return problems + ["an id in the output is not in its input catalog"]
    exact = separation_deg(leading.ra[lp], leading.dec[lp], other.ra[op], other.dec[op])
    if np.any(exact > radius * (1.0 + EDGE_RTOL)):
        problems.append(f"{int(np.sum(exact > radius * (1.0 + EDGE_RTOL)))} pairs beyond the radius")
    if not _matches_text(seps, exact):
        problems.append("a printed separation differs from the recomputed one")

    half = max(samples // 2, 1)
    written = np.unique(lead_ids)
    from_output = rng.choice(written, size=min(half, len(written)), replace=False)
    from_catalog = rng.choice(leading.ids, size=min(half, len(leading.ids)), replace=False)
    for lid in np.unique(np.concatenate([from_output, from_catalog])):
        i = np.searchsorted(leading.ids, lid)
        sure, maybe = other.within(leading.ra[i], leading.dec[i], radius)
        found = other_ids[lead_ids == lid]
        if not _pairs_ok(found, sure, maybe):
            problems.append(f"pairs of leading id {int(lid)} differ from the exhaustive pass")
            break
    return problems


def check_cone(
    rows: list[tuple[int, float]], truth: Catalog, ra: float, dec: float, radius: float
) -> list[str]:
    """One cone's (id, separation) rows against an exhaustive pass."""
    ids = np.array([r[0] for r in rows], dtype=np.uint64)
    seps = np.array([r[1] for r in rows], dtype=np.float64)
    if np.any(ids[1:] <= ids[:-1]):
        return ["cone rows not in strictly ascending id order"]
    sure, maybe = truth.within(ra, dec, radius)
    if not _pairs_ok(ids, sure, maybe):
        return [f"cone ({ra!r}, {dec!r}, {radius!r}) rows differ from the exhaustive pass"]
    pos = truth.positions(ids)
    exact = separation_deg(ra, dec, truth.ra[pos], truth.dec[pos])
    if not np.allclose(seps, exact, rtol=1e-13, atol=0.0):
        return [f"cone ({ra!r}, {dec!r}, {radius!r}) separations differ"]
    return []


_REJECT_RE = re.compile(r"^line (\d+): ")


def reject_lines(stderr_text: str) -> dict[int, str]:
    """``line <n>: <reason>`` messages from ``ingest``'s stderr, by line."""
    out = {}
    for line in stderr_text.splitlines():
        m = _REJECT_RE.match(line)
        if m:
            out[int(m.group(1))] = line[m.end():]
    return out


def check_rejects(rejects: dict[int, str], injected: dict[int, str]) -> list[str]:
    """The reported rejects are exactly the injected bad lines, each for
    its injected reason."""
    if set(rejects) != set(injected):
        return [f"{len(rejects)} rejects reported for {len(injected)} injected bad rows"]
    if any(not rejects[n].startswith(injected[n]) for n in injected):
        return ["a bad row was rejected for another reason than the injected one"]
    return []


def check_snapshot(snapshot: Path, expected: Catalog, load_index) -> list[str]:
    """The snapshot loads back with exactly the expected ids and positions."""
    try:
        index = load_index(snapshot)
    # a damaged archive can escape load_index as BadZipFile or EOFError
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        return [f"snapshot does not load: {exc!r}"]
    got = Catalog(index.ids, index.ra, index.dec)
    if not np.array_equal(got.ids, expected.ids):
        return ["snapshot ids differ from the input's good rows"]
    if not (np.array_equal(got.ra, expected.ra) and np.array_equal(got.dec, expected.dec)):
        return ["snapshot positions differ from the input"]
    return []
