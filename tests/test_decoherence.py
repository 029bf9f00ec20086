import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from fluxsense import FluxBias, SensorDesign, coupling_g01, transition_frequency
from fluxsense.decoherence import (
    RATES_TABLE_HEADER,
    channel_rates,
    composite_rates,
    rates_table,
)

DESIGN = SensorDesign()

# reference rates of the 9 GHz design, 1/s
CHANNEL_RATES = {
    0.0: (6035.987087504294, 72136.11142477626, 84151.36384086717,
          2.8319061630029942, 0.0, 29072.298416319943),
    0.2: (4549.476482758439, 46916.263754507214, 67650.9977293277,
          3.2194478754753004, 59685.536714138754, 26149.186958751274),
    0.4: (1316.5034428440215, 6581.263415700773, 24844.7906284908,
          9.029928886922903, 156258.76375439495, 16161.086318683781),
}


@pytest.mark.parametrize("phi", sorted(CHANNEL_RATES))
def test_channel_rates_frozen(phi):
    bias = FluxBias(phi)
    cav, ind, cap, fl_exp, fl_gauss, curr = CHANNEL_RATES[phi]
    r = composite_rates(DESIGN, bias)
    assert r.gamma1_cav == pytest.approx(cav, rel=1e-12)
    assert r.gamma1_ind == pytest.approx(ind, rel=1e-12)
    assert r.gamma1_cap == pytest.approx(cap, rel=1e-12)
    assert r.gamma_phi_flux_exp == pytest.approx(fl_exp, rel=1e-12)
    if fl_gauss:
        assert r.gamma_phi_flux_gauss == pytest.approx(fl_gauss, rel=1e-12)
    else:
        assert r.gamma_phi_flux_gauss == 0.0
    assert r.gamma_phi_curr_gauss == pytest.approx(curr, rel=1e-12)


def _rate(design, phi, channel):
    """One channel of composite_rates at flux ``phi``, 1/s."""
    return getattr(composite_rates(design, FluxBias(phi)), channel)


def test_inductive_rate_reference_points():
    assert _rate(DESIGN, 0.0, "gamma1_ind") == pytest.approx(7.21e4, rel=1e-3)
    assert _rate(DESIGN, 0.4, "gamma1_ind") == pytest.approx(6.6e3, rel=3e-3)
    off = dataclasses.replace(DESIGN, m_ind=0.0, m_parasitic=0.0)
    assert _rate(off, 0.3, "gamma1_ind") == 0.0


def test_purcell_rate_scalings():
    base = _rate(DESIGN, 0.3, "gamma1_cav")
    doubled = _rate(dataclasses.replace(DESIGN, kappa=2 * DESIGN.kappa), 0.3, "gamma1_cav")
    assert doubled == pytest.approx(2 * base, rel=1e-12)
    assert _rate(dataclasses.replace(DESIGN, beta=0.0), 0.3, "gamma1_cav") == 0.0
    # flux dependence follows the squared coupling ratio
    g_ratio = coupling_g01(DESIGN, FluxBias(0.4)) / coupling_g01(DESIGN, FluxBias(0.0))
    rate_ratio = _rate(DESIGN, 0.4, "gamma1_cav") / _rate(DESIGN, 0.0, "gamma1_cav")
    assert rate_ratio == pytest.approx(g_ratio**2, rel=1e-12)
    assert rate_ratio == pytest.approx(0.218, rel=1e-2)


def test_capacitive_rate_scalings():
    base = _rate(DESIGN, 0.3, "gamma1_cap")
    doubled = _rate(dataclasses.replace(DESIGN, c_c=2 * DESIGN.c_c), 0.3, "gamma1_cap")
    assert doubled == pytest.approx(4 * base, rel=1e-12)
    # flux ratio tracks the squared frequency ratio and the tabulated 29.3/99.3
    f_ratio = (transition_frequency(DESIGN, FluxBias(0.4))
               / transition_frequency(DESIGN, FluxBias(0.0)))
    rate_ratio = _rate(DESIGN, 0.4, "gamma1_cap") / _rate(DESIGN, 0.0, "gamma1_cap")
    assert rate_ratio == pytest.approx(f_ratio**2, rel=1e-12)
    assert rate_ratio == pytest.approx(29.3 / 99.3, rel=1e-2)


def test_flux_dephasing_sweet_spot():
    r = composite_rates(DESIGN, FluxBias(0.0))
    assert r.gamma_phi_flux_gauss == 0.0
    assert r.gamma_phi_flux_exp == pytest.approx(2.83, rel=1e-2)


def test_critical_current_rate_values():
    assert _rate(DESIGN, 0.0, "gamma_phi_curr_gauss") == pytest.approx(2.91e4, rel=5e-3)
    assert _rate(DESIGN, 0.4, "gamma_phi_curr_gauss") == pytest.approx(1.62e4, rel=5e-3)
    # cos -> 0 towards the half-period
    near_edge = _rate(DESIGN, 0.4998, "gamma_phi_curr_gauss")
    assert near_edge < 0.03 * _rate(DESIGN, 0.0, "gamma_phi_curr_gauss")


def test_monotonicity_in_flux():
    rates = [composite_rates(DESIGN, FluxBias(float(p))) for p in np.linspace(0.0, 0.49, 80)]
    for channel in ("gamma1_cav", "gamma1_ind", "gamma1_cap", "gamma_phi_curr_gauss"):
        values = [getattr(r, channel) for r in rates]
        assert all(a >= b for a, b in zip(values, values[1:])), channel
    for channel in ("gamma_phi_flux_gauss", "gamma_phi_flux_exp"):
        values = [getattr(r, channel) for r in rates]
        assert all(a <= b for a, b in zip(values, values[1:])), channel


def test_composite_rates_envelope():
    r = composite_rates(DESIGN, FluxBias(0.442))
    assert r.envelope_a == pytest.approx(8512.77234278804, rel=1e-12)
    assert r.envelope_b == pytest.approx(211367.92496759346, rel=1e-12)
    assert r.envelope_a == pytest.approx(8.2e3, rel=5e-2)
    assert r.envelope_b == pytest.approx(2.115e5, rel=1e-3)
    # envelope reconstruction from the channels
    a = (r.gamma1_cav + r.gamma1_ind + r.gamma1_cap) / 2 + r.gamma_phi_flux_exp
    b = math.hypot(r.gamma_phi_flux_gauss, r.gamma_phi_curr_gauss)
    assert r.envelope_a == pytest.approx(a, rel=1e-12)
    assert r.envelope_b == pytest.approx(b, rel=1e-12)


def test_composite_rates_all_channels_off():
    quiet = dataclasses.replace(DESIGN, alpha_flux=0.0, gamma_ic=0.0,
                                m_ind=0.0, m_parasitic=0.0, kappa=1e-30, c_c=1e-30)
    r = composite_rates(quiet, FluxBias(0.3))
    assert r.envelope_b == 0.0
    assert r.envelope_a < 1e-20


def test_composite_b_equals_current_noise_at_sweet_spot():
    r = composite_rates(DESIGN, FluxBias(0.0))
    assert r.envelope_b == r.gamma_phi_curr_gauss


def test_rates_independent_of_temperature():
    hot = dataclasses.replace(DESIGN, temperature=0.3)
    for phi in (0.0, 0.25, 0.45):
        assert composite_rates(DESIGN, FluxBias(phi)) == composite_rates(hot, FluxBias(phi))


def test_rates_table_layout():
    text = rates_table(DESIGN, [0.0, 0.2, 0.4])
    lines = text.splitlines()
    assert lines[0] == ",".join(RATES_TABLE_HEADER)
    assert len(lines) == 4
    assert text.count("\r\n") == 4
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    # kHz columns are the 1/s rates over 1000
    assert float(row[2]) == pytest.approx(_rate(DESIGN, 0.0, "gamma1_ind") / 1e3, rel=1e-8)
    assert float(row[6]) == pytest.approx(_rate(DESIGN, 0.0, "gamma_phi_curr_gauss") / 1e3,
                                          rel=1e-8)


def test_rates_table_edge_cases():
    assert rates_table(DESIGN, []).splitlines() == [",".join(RATES_TABLE_HEADER)]
    twice = rates_table(DESIGN, [0.2, 0.2]).splitlines()
    assert twice[1] == twice[2]


def test_rates_table_matches_csv_writer_oracle():
    # Byte oracle: one csv.writer row of .9g fields per flux point
    phis = [0.0, 0.1, 0.2, 1 / 3, 0.442, 0.4998]
    cold = dataclasses.replace(DESIGN, f_q_max=5.5e9, alpha_flux=3e-6)
    for design in (DESIGN, cold):
        channels = channel_rates(design, np.array(phis))[:6]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(RATES_TABLE_HEADER)
        for i, phi in enumerate(phis):
            writer.writerow([f"{phi:.9g}"] + [f"{c[i] / 1e3:.9g}" for c in channels])
        assert rates_table(design, phis) == buf.getvalue()
