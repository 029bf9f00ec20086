import dataclasses
import math

import numpy as np
import pytest
from scipy import constants as scipy_constants

from fluxsense import (
    CONSTANTS,
    FluxBias,
    FluxDomainError,
    SensorDesign,
    coupling_g01,
    josephson_inductance,
    spectrum_derivatives,
    thermal_visibility,
    transition_frequency,
)

DESIGN = SensorDesign()


def test_constants_identities():
    c = CONSTANTS
    for value in (c.h, c.hbar, c.e, c.k_B, c.mu_0, c.Phi_0):
        assert value > 0
    assert c.hbar == pytest.approx(c.h / (2 * math.pi), rel=1e-12)
    assert c.Phi_0 == pytest.approx(c.h / (2 * c.e), rel=1e-12)
    # The literals equal scipy's CODATA values bit for bit.
    assert (c.h, c.hbar, c.e, c.k_B, c.mu_0, c.Phi_0) == (
        scipy_constants.h,
        scipy_constants.hbar,
        scipy_constants.e,
        scipy_constants.k,
        scipy_constants.mu_0,
        scipy_constants.physical_constants["mag. flux quantum"][0],
    )


def test_flux_bias_domain():
    FluxBias(0.0)
    FluxBias(0.499)
    with pytest.raises(FluxDomainError):
        FluxBias(-1e-9)
    with pytest.raises(FluxDomainError):
        FluxBias(0.5)
    with pytest.raises(FluxDomainError):  # past the operational range
        FluxBias(0.4999)


def test_design_validation():
    with pytest.raises(ValueError):
        SensorDesign(f_q_max=0.5e9)
    with pytest.raises(ValueError):
        SensorDesign(f_q_max=26e9)
    with pytest.raises(ValueError):
        SensorDesign(e_c_over_h=0.0)
    with pytest.raises(ValueError):
        SensorDesign(temperature=-0.01)
    # beta may be zero (no readout coupling), not negative
    SensorDesign(beta=0.0)
    with pytest.raises(ValueError):
        SensorDesign(beta=-0.01)


def test_transition_frequency_values():
    assert transition_frequency(DESIGN, FluxBias(0.0)) == 9e9
    assert transition_frequency(DESIGN, FluxBias(1 / 3)) == pytest.approx(
        6289566153.100311, rel=1e-12)
    assert transition_frequency(DESIGN, FluxBias(0.442)) == pytest.approx(
        3685267733.494078, rel=1e-12)
    # coarse values as usually quoted for this design
    assert transition_frequency(DESIGN, FluxBias(1 / 3)) == pytest.approx(6.290e9, rel=1e-3)
    assert transition_frequency(DESIGN, FluxBias(0.442)) == pytest.approx(3.683e9, rel=1e-3)


def test_transition_frequency_monotone():
    phis = np.linspace(0.0, 0.4998, 400)
    f = [transition_frequency(DESIGN, FluxBias(float(p))) for p in phis]
    assert all(a > b for a, b in zip(f, f[1:]))


def test_operational_domain_rejected():
    with pytest.raises(FluxDomainError):
        transition_frequency(DESIGN, FluxBias(0.49995))
    with pytest.raises(FluxDomainError):
        spectrum_derivatives(DESIGN, FluxBias(0.49999))


def test_spectrum_derivatives_values():
    d = spectrum_derivatives(DESIGN, FluxBias(0.442))
    assert d.d_omega_d_phi == pytest.approx(-211005319504.31345, rel=1e-12)
    assert d.d2_omega_d_phi2 == pytest.approx(-1920977489419.7073, rel=1e-12)
    assert d.d_omega_d_ln_ic == pytest.approx(12375574572.068312, rel=1e-12)
    assert abs(d.d_omega_d_phi) == pytest.approx(2.112e11, rel=1e-3)
    assert spectrum_derivatives(DESIGN, FluxBias(0.0)).d_omega_d_phi == 0.0


def _omega(f_q_max, e_c, phi, ic_scale=1.0):
    # angular transition frequency with an explicit critical-current scale
    return 2 * math.pi * ((f_q_max + e_c) * math.sqrt(ic_scale * math.cos(math.pi * phi)) - e_c)


def test_spectrum_derivatives_match_finite_differences():
    rng = np.random.default_rng(20240917)
    h = 1e-5
    for _ in range(50):
        f_max = float(rng.uniform(2e9, 20e9))
        phi = float(rng.uniform(0.01, 0.49))
        design = dataclasses.replace(DESIGN, f_q_max=f_max)
        got = spectrum_derivatives(design, FluxBias(phi))
        e_c = design.e_c_over_h

        d1 = (_omega(f_max, e_c, phi + h) - _omega(f_max, e_c, phi - h)) / (2 * h)
        assert got.d_omega_d_phi == pytest.approx(d1, rel=1e-6)

        d2 = (_omega(f_max, e_c, phi + h) - 2 * _omega(f_max, e_c, phi)
              + _omega(f_max, e_c, phi - h)) / (h * h)
        assert got.d2_omega_d_phi2 == pytest.approx(d2, rel=1e-6)

        # derivative with respect to log critical current
        dic = (_omega(f_max, e_c, phi, math.exp(h)) - _omega(f_max, e_c, phi, math.exp(-h))) / (2 * h)
        assert got.d_omega_d_ln_ic == pytest.approx(dic, rel=1e-6)


def test_josephson_inductance():
    assert josephson_inductance(DESIGN, FluxBias(0.0)) == pytest.approx(
        3.878646744846315e-09, rel=1e-12)
    assert josephson_inductance(DESIGN, FluxBias(0.442)) == pytest.approx(
        2.140465439514005e-08, rel=1e-12)
    assert josephson_inductance(DESIGN, FluxBias(0.0)) == pytest.approx(3.88e-9, rel=1e-3)
    assert josephson_inductance(DESIGN, FluxBias(0.442)) == pytest.approx(21.4e-9, rel=1e-3)


def test_josephson_inductance_cos_identity():
    phis = np.linspace(0.0, 0.49, 50)
    products = [josephson_inductance(DESIGN, FluxBias(float(p))) * math.cos(math.pi * p)
                for p in phis]
    assert all(v == pytest.approx(products[0], rel=1e-12) for v in products)
    l_values = [josephson_inductance(DESIGN, FluxBias(float(p))) for p in phis]
    assert all(a < b for a, b in zip(l_values, l_values[1:]))


def test_coupling_g01():
    g0 = coupling_g01(DESIGN, FluxBias(0.0))
    assert g0 == pytest.approx(550819210.867106, rel=1e-12)
    assert g0 / (2 * math.pi) == pytest.approx(87.7e6, rel=1e-2)
    ratio = coupling_g01(DESIGN, FluxBias(0.4)) / g0
    assert ratio == pytest.approx(0.4670214722360564, rel=1e-12)
    assert ratio == pytest.approx(0.467, rel=1e-3)


def test_coupling_g01_beta_linearity():
    bias = FluxBias(0.3)
    base = coupling_g01(DESIGN, bias)
    doubled = coupling_g01(dataclasses.replace(DESIGN, beta=2 * DESIGN.beta), bias)
    assert doubled == pytest.approx(2 * base, rel=1e-12)
    assert coupling_g01(dataclasses.replace(DESIGN, beta=0.0), bias) == 0.0


def test_thermal_visibility_values():
    assert thermal_visibility(5e9, 0.0) == 1.0
    assert thermal_visibility(3.683e9, 0.04) == pytest.approx(0.9761919453963834, rel=1e-12)
    assert thermal_visibility(3.683e9, 0.04) == pytest.approx(0.9763, rel=1e-3)
    # infinite-temperature limit
    assert thermal_visibility(1e-3, 300.0) < 1e-10
    # very large hf/kT must not overflow
    assert thermal_visibility(1e12, 1e-6) == 1.0


def test_thermal_visibility_properties():
    rng = np.random.default_rng(11)
    f = rng.uniform(1e8, 2e10, 40)
    t = rng.uniform(1e-3, 1.0, 40)
    for fi, ti in zip(f, t):
        v = thermal_visibility(float(fi), float(ti))
        assert 0.0 < v <= 1.0
        # tanh and exponential-ratio forms agree
        z = CONSTANTS.h * fi / (CONSTANTS.k_B * ti)
        if z < 700:
            ratio = (math.exp(z) - 1) / (math.exp(z) + 1)
            assert v == pytest.approx(ratio, rel=1e-12)
    # monotone increasing in frequency at fixed temperature
    vs = [thermal_visibility(fi, 0.04) for fi in np.linspace(1e9, 2e10, 30)]
    assert all(a < b for a, b in zip(vs, vs[1:]))


def test_thermal_visibility_rejects_bad_input():
    with pytest.raises(ValueError):
        thermal_visibility(0.0, 0.04)
    with pytest.raises(ValueError):
        thermal_visibility(5e9, -0.01)
    for f_q, temperature in ((math.nan, 0.04), (5e9, math.nan)):
        with pytest.raises(ValueError):
            thermal_visibility(f_q, temperature)
