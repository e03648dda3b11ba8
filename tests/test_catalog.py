"""Operator catalog: orbit bands, entries, and ASN lookup."""

from __future__ import annotations

import pytest

from helpers import mapped_asns
from snoscope.catalog import (
    DEFAULT_BANDS,
    ORBITS,
    ROLE_EXCLUDED,
    ROLE_SUBSCRIBER,
    CatalogConflictError,
    SnoCatalog,
    SnoEntry,
    band_containing,
    band_of,
    make_bands,
)


class TestBands:
    def test_default_cut_points(self):
        bands = make_bands()
        assert bands["LEO"].min_ms == 0.0 and bands["LEO"].max_ms == 200.0
        assert bands["MEO"].min_ms == 200.0 and bands["MEO"].max_ms == 500.0
        assert bands["GEO"].min_ms == 500.0 and bands["GEO"].max_ms == float("inf")

    def test_half_open_boundaries(self):
        assert band_containing(0.0).orbit == "LEO"
        assert band_containing(199.999).orbit == "LEO"
        assert band_containing(200.0).orbit == "MEO"
        assert band_containing(499.999).orbit == "MEO"
        assert band_containing(500.0).orbit == "GEO"
        assert band_containing(12345.0).orbit == "GEO"

    def test_every_latency_in_exactly_one_band(self):
        for latency in (0.0, 1e-9, 55.0, 200.0, 350.0, 500.0, 527.0, 9999.0):
            holders = [b for b in DEFAULT_BANDS.values() if b.contains(latency)]
            assert len(holders) == 1

    def test_negative_latency_in_no_band(self):
        with pytest.raises(ValueError):
            band_containing(-1.0)

    def test_custom_cut_points(self):
        bands = make_bands(meo_min_ms=150.0, geo_min_ms=400.0)
        assert bands["LEO"].max_ms == 150.0
        assert bands["GEO"].min_ms == 400.0

    def test_bad_cut_points_rejected(self):
        with pytest.raises(ValueError):
            make_bands(meo_min_ms=500.0, geo_min_ms=200.0)
        with pytest.raises(ValueError):
            make_bands(meo_min_ms=0.0, geo_min_ms=500.0)

    def test_band_of_unknown_orbit(self):
        with pytest.raises(ValueError):
            band_of("HEO")


class TestSnoEntry:
    def test_orbit_label_ordering(self):
        entry = SnoEntry("ses", frozenset({1}), frozenset({"GEO", "MEO"}))
        assert entry.orbit_label() == "MEO+GEO"

    def test_rejects_unknown_orbit_token(self):
        with pytest.raises(ValueError):
            SnoEntry("x", frozenset({1}), frozenset({"SSO"}))

    def test_rejects_subscriber_excluded_overlap(self):
        with pytest.raises(ValueError):
            SnoEntry("x", frozenset({1, 2}), frozenset({"LEO"}), excluded_asns=frozenset({2}))


class TestSnoCatalog:
    def _catalog(self):
        return SnoCatalog(
            [
                SnoEntry("starlink", frozenset({14593}), frozenset({"LEO"}), excluded_asns=frozenset({27277})),
                SnoEntry("viasat", frozenset({13955, 7155}), frozenset({"GEO"}), pep=True),
            ]
        )

    def test_lookup_roles(self):
        catalog = self._catalog()
        entry, role = catalog.lookup(14593)
        assert entry.name == "starlink" and role == ROLE_SUBSCRIBER
        entry, role = catalog.lookup(27277)
        assert entry.name == "starlink" and role == ROLE_EXCLUDED
        assert catalog.lookup(3356) is None

    def test_get_by_name(self):
        catalog = self._catalog()
        assert catalog.get("viasat").pep is True
        with pytest.raises(KeyError):
            catalog.get("nonexistent")

    def test_counts_and_contains(self):
        catalog = self._catalog()
        assert len(catalog) == 2
        assert mapped_asns(catalog) == 4
        assert "starlink" in catalog and "o3b" not in catalog

    def test_duplicate_asn_across_operators_rejected(self):
        with pytest.raises(CatalogConflictError):
            SnoCatalog(
                [
                    SnoEntry("a", frozenset({100}), frozenset({"GEO"})),
                    SnoEntry("b", frozenset({100}), frozenset({"GEO"})),
                ]
            )

    def test_duplicate_name_rejected(self):
        with pytest.raises(CatalogConflictError):
            SnoCatalog(
                [
                    SnoEntry("a", frozenset({1}), frozenset({"GEO"})),
                    SnoEntry("a", frozenset({2}), frozenset({"GEO"})),
                ]
            )


class TestBundledCatalog:
    def test_shape(self, bundled_catalog):
        assert len(bundled_catalog) == 41
        assert mapped_asns(bundled_catalog) == 67

    def test_orbit_spread(self, bundled_catalog):
        by_orbit: dict[str, int] = {}
        for entry in bundled_catalog.entries:
            by_orbit[entry.orbit_label()] = by_orbit.get(entry.orbit_label(), 0) + 1
        assert by_orbit["LEO"] == 2  # two LEO constellations are operating
        assert by_orbit["MEO"] == 1  # one MEO-only operator
        assert by_orbit["MEO+GEO"] == 1  # one hybrid
        assert by_orbit["GEO"] == 37

    def test_known_roles(self, bundled_catalog):
        entry, role = bundled_catalog.lookup(14593)
        assert entry.name == "starlink" and role == ROLE_SUBSCRIBER
        entry, role = bundled_catalog.lookup(27277)
        assert entry.name == "starlink" and role == ROLE_EXCLUDED

    def test_pep_operators(self, bundled_catalog):
        pep = {entry.name for entry in bundled_catalog.entries if entry.pep}
        assert pep == {"hughes", "viasat", "eutelsat", "avanti"}

    def test_every_entry_declares_orbits(self, bundled_catalog):
        for entry in bundled_catalog.entries:
            assert entry.orbits
            assert entry.orbits <= set(ORBITS)
