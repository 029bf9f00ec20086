"""Magnetostatics of the on-chip flux bias line.

The bias line is modeled as three thin straight conductors in the chip
plane: a semi-infinite feed running along the negative y axis up to the
origin, and two grounded return arms of length x_a along the x axis,
each carrying half the current.  The out-of-plane field of each segment
has a closed form obtained from the Biot-Savart line integral:

    feed:      B = mu0 I / (4 pi x) (1 - y / r)          r = sqrt(x^2+y^2)
    right arm: B = mu0 I / (8 pi y) (x/r - (x-x_a)/r_-)  r_- over (x-x_a, y)
    left arm:  B = mu0 I / (8 pi y) ((x+x_a)/r_+ - x/r)  r_+ over (x+x_a, y)

Mutual inductances follow from the flux of the summed field through
the receiving loop areas: the two rectangles making up the SQUID loop
for M, and the oriented gap strips flanking the qubit arm for the
parasitic M'.  The flux through a rectangle is exact: the corner sum of
the field's double antiderivative, in units of mu0 I / 4 pi,

    feed:  y ln(r + y) - r
    arms:  (H(x + x_a, y) - H(x - x_a, y)) / 2,
           H(u, y) = r_u - |u| ln(|u| + r_u) + |u| ln|y|

(the x/r terms of the two arms cancel in the sum).  The published loop
coordinates are not known exactly; the defaults below are tuned so the
flux reproduces the design values M = 2.08 pH (about 1 mA per flux
quantum) and M' = 0.22 pH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .qubit import CONSTANTS


class FieldSingularityError(ValueError):
    """Field or flux requested on one of the conductors."""


@dataclass(frozen=True)
class FluxPatch:
    """Axis-aligned rectangle receiving flux, with traversal orientation.

    Coordinates in meters.  ``orientation`` is +1 or -1 and sets the
    sign with which the patch flux enters a loop sum (opposite sides of
    the qubit arm are traversed in opposite directions).
    """

    x1: float
    x2: float
    y1: float
    y2: float
    orientation: float = 1.0

    def __post_init__(self) -> None:
        if not (-math.inf < self.x1 < self.x2 < math.inf
                and -math.inf < self.y1 < self.y2 < math.inf):
            raise ValueError("rectangle needs finite x1 < x2 and y1 < y2")
        if self.orientation not in (-1.0, 1.0):
            raise ValueError("orientation must be +1 or -1")


# Default receiving geometry (meters).  SQUID loop: two stacked
# rectangles of 125 and 241.5 um^2 centered above the feed; gap region:
# two strips flanking the qubit arm, whose center is offset 23 um from
# the feed axis (the asymmetry is what makes the parasitic flux
# nonzero).
_DEFAULT_SQUID = (
    FluxPatch(-12.5e-6, 12.5e-6, 8.4e-6, 13.4e-6),
    FluxPatch(-11.5e-6, 11.5e-6, 13.4e-6, 23.9e-6),
)
_DEFAULT_GAP = (
    FluxPatch(35e-6, 59e-6, 23.9e-6, 153.9e-6, orientation=1.0),
    FluxPatch(-13e-6, 11e-6, 23.9e-6, 153.9e-6, orientation=-1.0),
)


@dataclass(frozen=True)
class BiasLineGeometry:
    """Bias line layout and the loop areas that receive its flux."""

    x_a: float = 24e-6
    squid_patches: tuple[FluxPatch, ...] = _DEFAULT_SQUID
    gap_patches: tuple[FluxPatch, ...] = _DEFAULT_GAP

    def __post_init__(self) -> None:
        if not 0 < self.x_a < math.inf:  # NaN and +-inf fail too
            raise ValueError(f"x_a must be positive and finite, got {self.x_a}")
        if not self.squid_patches:
            raise ValueError("at least one SQUID patch is required")
        # config_to_text has no spelling for an empty group
        if not self.gap_patches:
            raise ValueError("at least one gap patch is required")


class FieldComponents(NamedTuple):
    feed: float
    right_arm: float
    left_arm: float


_SINGULARITY_PAD = 1e-12


def _on_conductor(geometry: BiasLineGeometry, x: float, y: float) -> bool:
    if abs(x) < _SINGULARITY_PAD and y <= 0:
        return True  # on the feed
    if abs(y) < _SINGULARITY_PAD and -geometry.x_a <= x <= geometry.x_a:
        return True  # on one of the arms
    return False


def field_components(geometry: BiasLineGeometry, x: float, y: float,
                     current: float = 1.0) -> FieldComponents:
    """Out-of-plane field of each segment at (x, y), tesla.

    Raises FieldSingularityError on the conductors themselves.
    """
    if _on_conductor(geometry, x, y):
        raise FieldSingularityError(f"({x}, {y}) lies on the bias line")
    mu0 = CONSTANTS.mu_0
    x_a = geometry.x_a
    r = math.hypot(x, y)
    # (1 - y/r)/x rewritten as x/(r (r + y)): regular on the x = 0 axis
    # above the feed, singular alongside it (y < 0) as it should be.
    feed = mu0 * current / (4 * math.pi) * x / (r * (r + y))
    if y == 0:
        # Collinear with the arms beyond their ends: they contribute nothing.
        return FieldComponents(feed, 0.0, 0.0)
    r_minus = math.hypot(x - x_a, y)
    r_plus = math.hypot(x + x_a, y)
    right = mu0 * current / (8 * math.pi * y) * (x / r - (x - x_a) / r_minus)
    left = mu0 * current / (8 * math.pi * y) * ((x + x_a) / r_plus - x / r)
    return FieldComponents(feed, right, left)


def field_at(geometry: BiasLineGeometry, x: float, y: float, current: float = 1.0) -> float:
    """Total out-of-plane field at (x, y) for the given current, tesla."""
    return float(sum(field_components(geometry, x, y, current)))


def _arm_primitive(u: float, y: float, log_y: bool) -> float:
    """H(u, y) = r - |u| ln(|u| + r) [+ |u| ln|y|], with d2H/du dy = u / (y r)."""
    a, r = abs(u), math.hypot(u, y)
    h = r - a * math.log(a + r)
    return h + a * math.log(abs(y)) if log_y else h


def _primitive(x_a: float, x: float, y: float, log_y: bool) -> float:
    """Double antiderivative of the total field, in units of mu0 I / 4 pi."""
    r = math.hypot(x, y)
    # r + y cancels alongside the feed (y < 0, |x| << |y|); x^2 / (r - y) does not.
    r_plus_y = r + y if y >= 0 else x * x / (r - y)
    feed = y * math.log(r_plus_y) - r
    arms = 0.5 * (_arm_primitive(x + x_a, y, log_y) - _arm_primitive(x - x_a, y, log_y))
    return feed + arms


def flux_through_rectangle(geometry: BiasLineGeometry, patch: FluxPatch,
                           current: float = 1.0) -> float:
    """Flux through one patch, in closed form; the orientation sign is applied.

    The flux is the corner sum of the field's double antiderivative.
    Raises FieldSingularityError for a patch that touches the feed or
    an arm, where the flux diverges.
    """
    x_a = geometry.x_a
    on_feed = patch.x1 <= 0 <= patch.x2 and patch.y1 <= 0
    on_arm = patch.y1 <= 0 <= patch.y2 and patch.x1 <= x_a and patch.x2 >= -x_a
    if on_feed or on_arm:
        raise FieldSingularityError(f"{patch} touches the bias line")
    # Wholly beyond an arm end the ln|y| terms are equal at both x corners
    # and cancel; dropping them keeps a corner on y = 0 finite.
    log_y = not (patch.x1 >= x_a or patch.x2 <= -x_a)
    total = sum(sx * sy * _primitive(x_a, x, y, log_y)
                for x, sx in ((patch.x2, 1), (patch.x1, -1))
                for y, sy in ((patch.y2, 1), (patch.y1, -1)))
    return patch.orientation * CONSTANTS.mu_0 * current / (4 * math.pi) * total


class InductanceReport(NamedTuple):
    m_squid: float           # H
    m_parasitic: float       # H
    periodicity_current: float  # A per flux quantum


def mutual_inductances(geometry: BiasLineGeometry) -> InductanceReport:
    """Mutual inductances of the bias line into SQUID loop and gap.

    M is the orientation-weighted flux sum over the SQUID patches at
    unit current; M' likewise over the gap patches (reported as a
    magnitude).  The bias-current periodicity is Phi_0 / M.
    """
    m = sum(flux_through_rectangle(geometry, patch) for patch in geometry.squid_patches)
    mp = sum(flux_through_rectangle(geometry, patch) for patch in geometry.gap_patches)
    if not (0 < m < math.inf and math.isfinite(mp)):  # NaN fails too
        raise ArithmeticError(f"couplings came out M = {m}, M' = {mp} H; check geometry")
    return InductanceReport(m, abs(mp), CONSTANTS.Phi_0 / m)
