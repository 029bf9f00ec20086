import math

import numpy as np
import pytest
from scipy.integrate import quad

from fluxsense import BiasLineGeometry, CONSTANTS
from fluxsense.magnetostatics import (
    FieldSingularityError,
    FluxPatch,
    field_at,
    field_components,
    flux_through_rectangle,
    mutual_inductances,
)

GEOMETRY = BiasLineGeometry()
FEED_CUTOFF = -1.0  # m; truncating the semi-infinite feed here keeps the
                    # line-integral oracle within 1e-8 of the exact field


def _biot_savart_components(x, y, current=1.0):
    """Line-integral field of the three filaments (feed + half-current arms)."""
    feed, _ = quad(lambda yp: x / (x * x + (y - yp) ** 2) ** 1.5,
                   FEED_CUTOFF, 0.0, epsabs=0.0, epsrel=1e-10, limit=400,
                   points=(-5e-4, -5e-5))
    right, _ = quad(lambda xp: y / ((x - xp) ** 2 + y * y) ** 1.5,
                    0.0, GEOMETRY.x_a, epsabs=0.0, epsrel=1e-10, limit=400)
    left, _ = quad(lambda xp: y / ((x - xp) ** 2 + y * y) ** 1.5,
                   -GEOMETRY.x_a, 0.0, epsabs=0.0, epsrel=1e-10, limit=400)
    k = CONSTANTS.mu_0 * current / (4 * math.pi)
    return k * feed, k * right / 2, k * left / 2


def test_patch_validation():
    with pytest.raises(ValueError):
        FluxPatch(1e-6, 1e-6, 0.0, 1e-6)
    with pytest.raises(ValueError):
        FluxPatch(0.0, 1e-6, 2e-6, 1e-6)
    with pytest.raises(ValueError):
        FluxPatch(0.0, 1e-6, 0.0, 1e-6, orientation=0.5)
    for corners in ((0.0, math.inf, 0.0, 1e-6), (-math.inf, 0.0, 0.0, 1e-6),
                    (0.0, 1e-6, -math.inf, 1e-6), (0.0, 1e-6, 0.0, math.inf)):
        with pytest.raises(ValueError):
            FluxPatch(*corners)


def test_geometry_validation():
    with pytest.raises(ValueError):
        BiasLineGeometry(x_a=0.0)
    with pytest.raises(ValueError, match="x_a"):
        BiasLineGeometry(x_a=math.inf)
    with pytest.raises(ValueError):
        BiasLineGeometry(squid_patches=())


def test_feed_field_on_axis():
    # beyond the arm ends at y = 0 only the semi-infinite feed contributes
    x = 30e-6
    c = field_components(GEOMETRY, x, 0.0)
    assert c.feed == pytest.approx(CONSTANTS.mu_0 / (4 * math.pi * x), rel=1e-12)
    assert c.right_arm == 0.0
    assert c.left_arm == 0.0


def test_arm_mirror_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = float(rng.uniform(-50e-6, 50e-6))
        y = float(rng.uniform(1e-6, 50e-6))
        here = field_components(GEOMETRY, x, y)
        mirrored = field_components(GEOMETRY, -x, y)
        assert here.left_arm == pytest.approx(mirrored.right_arm, rel=1e-12)
        assert here.feed == pytest.approx(-mirrored.feed, rel=1e-12)


def test_singularities_rejected():
    with pytest.raises(FieldSingularityError):
        field_components(GEOMETRY, 0.0, -5e-6)   # on the feed
    with pytest.raises(FieldSingularityError):
        field_components(GEOMETRY, 5e-6, 0.0)    # on an arm
    field_components(GEOMETRY, 5e-6, 1e-9)       # just off the conductor is fine


def test_field_linearity_and_superposition():
    x, y = 8e-6, 12e-6
    assert field_at(GEOMETRY, x, y, 2.0) == pytest.approx(
        2 * field_at(GEOMETRY, x, y, 1.0), rel=1e-15)
    assert field_at(GEOMETRY, x, y) == pytest.approx(
        sum(field_components(GEOMETRY, x, y)), rel=1e-15)


def test_closed_forms_match_line_integral():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = float(rng.uniform(-60e-6, 60e-6))
        y = float(rng.uniform(2e-6, 60e-6))
        closed = field_components(GEOMETRY, x, y)
        oracle = _biot_savart_components(x, y)
        for got, want in zip(closed, oracle):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-18)


def test_flux_linearity():
    patch = GEOMETRY.squid_patches[0]
    one = flux_through_rectangle(GEOMETRY, patch, current=1.0)
    two = flux_through_rectangle(GEOMETRY, patch, current=2.0)
    zero = flux_through_rectangle(GEOMETRY, patch, current=0.0)
    assert two == pytest.approx(2 * one, rel=1e-12)
    assert zero == 0.0


def test_flux_orientation_sign():
    patch = GEOMETRY.squid_patches[0]
    flipped = FluxPatch(patch.x1, patch.x2, patch.y1, patch.y2, orientation=-1.0)
    plus = flux_through_rectangle(GEOMETRY, patch)
    minus = flux_through_rectangle(GEOMETRY, flipped)
    assert minus == pytest.approx(-plus, rel=1e-12)


def _quadrature_flux(patch):
    """Nested adaptive quadrature of field_at over the patch (the oracle)."""
    def strip(x):
        return quad(lambda y: field_at(GEOMETRY, x, y), patch.y1, patch.y2,
                    epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return patch.orientation * quad(strip, patch.x1, patch.x2,
                                    epsabs=0.0, epsrel=1e-11, limit=200)[0]


def _patch_family(kind, rng):
    um = 1e-6
    x_a = GEOMETRY.x_a
    width, height = rng.uniform(1, 30) * um, rng.uniform(1, 30) * um
    if kind == "above":
        x1, y1 = rng.uniform(-60, 40) * um, rng.uniform(0.5, 40) * um
    elif kind == "below beside the feed":
        x1, y1 = rng.uniform(0.5, 40) * um, -height - rng.uniform(0.5, 40) * um
    elif kind == "straddling beyond an arm end":
        x1, y1 = x_a + rng.uniform(0.5, 20) * um, -rng.uniform(0.5, 1) * height
    else:  # "corner on y = 0 beyond an arm end"
        x1, y1 = x_a + rng.uniform(0.5, 20) * um, -height * rng.integers(2)
    if rng.integers(2):  # mirror to the left of the feed
        x1 = -x1 - width
    return FluxPatch(x1, x1 + width, y1, y1 + height, orientation=float(rng.choice((-1, 1))))


@pytest.mark.parametrize("kind", [
    "above",
    "below beside the feed",
    "straddling beyond an arm end",
    "corner on y = 0 beyond an arm end",
])
def test_closed_form_flux_matches_quadrature(kind):
    rng = np.random.default_rng(11)
    for _ in range(6):
        patch = _patch_family(kind, rng)
        assert flux_through_rectangle(GEOMETRY, patch) == pytest.approx(
            _quadrature_flux(patch), rel=1e-9), patch


@pytest.mark.parametrize("patch", [
    FluxPatch(-5e-6, 5e-6, -20e-6, -1e-6),     # across the feed
    FluxPatch(-5e-6, 0.0, -20e-6, -1e-6),      # edge on the feed
    FluxPatch(5e-6, 10e-6, -2e-6, 2e-6),       # across an arm
    FluxPatch(5e-6, 10e-6, 0.0, 2e-6),         # edge on an arm
    FluxPatch(24e-6, 30e-6, 0.0, 2e-6),        # corner on an arm end
    FluxPatch(-30e-6, 30e-6, -2e-6, 2e-6),     # across both arms and the feed end
])
def test_flux_through_the_line_rejected(patch):
    with pytest.raises(FieldSingularityError):
        flux_through_rectangle(GEOMETRY, patch)


def test_squid_flux_at_reference_current():
    total = sum(flux_through_rectangle(GEOMETRY, p, current=1e-3)
                for p in GEOMETRY.squid_patches)
    assert total == pytest.approx(2.0754729984963807e-15, rel=1e-9)
    assert total == pytest.approx(2.08e-15, rel=5e-2)


@pytest.mark.parametrize("group", ["squid_patches", "gap_patches"])
def test_mutual_inductance_that_overflows_is_an_error(group):
    # finite corners whose flux overflows to inf - inf = NaN
    geometry = BiasLineGeometry(**{group: (FluxPatch(1e-6, 1.7e308, 8e-6, 9e-6),)})
    with pytest.raises(ArithmeticError):
        mutual_inductances(geometry)


def test_mutual_inductances_reference_geometry():
    report = mutual_inductances(GEOMETRY)
    assert report.m_squid == pytest.approx(2.0754729984963807e-12, rel=1e-9)
    assert report.m_parasitic == pytest.approx(2.3178317474659563e-13, rel=1e-9)
    assert report.m_squid == pytest.approx(2.08e-12, rel=5e-2)
    assert report.m_parasitic == pytest.approx(0.22e-12, rel=15e-2)
    periodicity_ma = report.periodicity_current * 1e3
    assert 0.99 <= periodicity_ma <= 1.01
