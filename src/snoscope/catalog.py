"""Operator registry: ASN ownership, orbit declarations, and latency bands.

The catalog maps autonomous system numbers to satellite network operators
(SNOs). Each operator declares the orbits it serves and, optionally, ASNs it
owns whose traffic is known not to ride the satellite network (corporate or
terrestrial-backbone ASes). Orbit bands translate an access latency into the
orbit regime that could plausibly produce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

ORBITS = ("LEO", "MEO", "GEO")

ROLE_SUBSCRIBER = "subscriber"
ROLE_EXCLUDED = "excluded"

# ASdb category whose member ASes are candidate satellite operators.
SATELLITE_CATEGORY = "Satellite Communication"


class CatalogConflictError(ValueError):
    """An ASN is claimed by more than one operator."""


@dataclass(frozen=True)
class OrbitBand:
    """Half-open access-latency interval [min_ms, max_ms) for one orbit."""

    orbit: str
    min_ms: float
    max_ms: float

    def contains(self, latency_ms: float) -> bool:
        return self.min_ms <= latency_ms < self.max_ms


def make_bands(meo_min_ms: float = 200.0, geo_min_ms: float = 500.0) -> dict[str, OrbitBand]:
    """Build the orbit band table from the two cut points.

    The bands are disjoint and cover [0, inf), so every non-negative latency
    falls in exactly one band.
    """
    if not 0.0 < meo_min_ms < geo_min_ms:
        raise ValueError(f"band cut points must satisfy 0 < meo_min < geo_min, got {meo_min_ms}, {geo_min_ms}")
    return {
        "LEO": OrbitBand("LEO", 0.0, meo_min_ms),
        "MEO": OrbitBand("MEO", meo_min_ms, geo_min_ms),
        "GEO": OrbitBand("GEO", geo_min_ms, math.inf),
    }


DEFAULT_BANDS = make_bands()


def band_of(orbit: str, bands: Mapping[str, OrbitBand] | None = None) -> OrbitBand:
    table = DEFAULT_BANDS if bands is None else bands
    try:
        return table[orbit]
    except KeyError:
        raise ValueError(f"unknown orbit {orbit!r}") from None


def band_containing(latency_ms: float, bands: Mapping[str, OrbitBand] | None = None) -> OrbitBand:
    """The unique band holding latency_ms (latency must be >= 0)."""
    table = DEFAULT_BANDS if bands is None else bands
    for band in table.values():
        if band.contains(latency_ms):
            return band
    raise ValueError(f"latency {latency_ms!r} falls in no band")


@dataclass(frozen=True)
class SnoEntry:
    """One operator: its subscriber ASNs, declared orbits, and exclusions."""

    name: str
    asns: frozenset[int]
    orbits: frozenset[str]
    pep: bool = False
    excluded_asns: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operator name must be non-empty")
        bad = set(self.orbits) - set(ORBITS)
        if bad:
            raise ValueError(f"unknown orbit tokens for {self.name!r}: {sorted(bad)}")
        overlap = self.asns & self.excluded_asns
        if overlap:
            raise ValueError(f"{self.name!r} lists ASNs as both subscriber and excluded: {sorted(overlap)}")

    def orbit_label(self) -> str:
        """Declared orbits joined in LEO < MEO < GEO order, e.g. "MEO+GEO"."""
        return "+".join(o for o in ORBITS if o in self.orbits)


class SnoCatalog:
    """Immutable ASN -> operator index with subscriber/excluded roles."""

    def __init__(self, entries: Iterable[SnoEntry]):
        self._entries: dict[str, SnoEntry] = {}
        self._by_asn: dict[int, tuple[SnoEntry, str]] = {}
        for entry in entries:
            if entry.name in self._entries:
                raise CatalogConflictError(f"duplicate operator name {entry.name!r}")
            self._entries[entry.name] = entry
            for asn in entry.asns:
                self._claim(asn, entry, ROLE_SUBSCRIBER)
            for asn in entry.excluded_asns:
                self._claim(asn, entry, ROLE_EXCLUDED)

    def _claim(self, asn: int, entry: SnoEntry, role: str) -> None:
        prior = self._by_asn.get(asn)
        if prior is not None:
            raise CatalogConflictError(f"AS{asn} claimed by both {prior[0].name!r} and {entry.name!r}")
        self._by_asn[asn] = (entry, role)

    def lookup(self, asn: int) -> tuple[SnoEntry, str] | None:
        """(entry, role) for an ASN, or None when no operator claims it."""
        return self._by_asn.get(asn)

    def get(self, name: str) -> SnoEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"no operator named {name!r}") from None

    @property
    def entries(self) -> list[SnoEntry]:
        return list(self._entries.values())

    @property
    def names(self) -> list[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


def build_catalog(
    asdb_rows: Iterable[Mapping[str, object]],
    manual_additions: Iterable[SnoEntry] = (),
    manual_exclusions: Iterable[int] = (),
) -> SnoCatalog:
    """Assemble a catalog from database rows plus manual curation.

    asdb_rows are mappings with keys "asn", "org", and "category"; only rows
    in the satellite-communication category are kept. manual_additions merge
    by operator name (their ASNs, orbits, and flags union into any row-derived
    entry). manual_exclusions drop ASNs entirely, wherever they came from.
    Conflicting ownership of one ASN by two operators raises
    CatalogConflictError.
    """
    dropped = set(manual_exclusions)
    grouped: dict[str, set[int]] = {}
    owner: dict[int, str] = {}
    for row in asdb_rows:
        if row.get("category") != SATELLITE_CATEGORY:
            continue
        asn = int(row["asn"])  # type: ignore[arg-type]
        org = str(row["org"])
        if asn in dropped:
            continue
        prior = owner.get(asn)
        if prior is not None and prior != org:
            raise CatalogConflictError(f"AS{asn} claimed by both {prior!r} and {org!r}")
        owner[asn] = org
        grouped.setdefault(org, set()).add(asn)

    merged: dict[str, SnoEntry] = {
        org: SnoEntry(name=org, asns=frozenset(asns), orbits=frozenset())
        for org, asns in grouped.items()
    }
    for extra in manual_additions:
        asns = frozenset(a for a in extra.asns if a not in dropped)
        excluded = frozenset(a for a in extra.excluded_asns if a not in dropped)
        base = merged.get(extra.name)
        if base is None:
            merged[extra.name] = SnoEntry(extra.name, asns, extra.orbits, extra.pep, excluded)
        else:
            merged[extra.name] = SnoEntry(
                extra.name,
                base.asns | asns,
                base.orbits | extra.orbits,
                base.pep or extra.pep,
                base.excluded_asns | excluded,
            )
    return SnoCatalog(merged.values())
