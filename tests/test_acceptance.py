"""Acceptance gate: ten numbered criteria, one pass/fail line each under -v.

Each test is self-contained and uses only the public package API, so a
failure localizes the broken guarantee directly.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import optimize

import qdetnoise as q
from conftest import draw_cavity
from qdetnoise.cli import RunConfig, main, parse_config

HBAR = 1.0

_rng = np.random.default_rng(20260814)
SWEEP = [draw_cavity(_rng) for _ in range(100)]
GRID129 = q.make_symmetric_grid(4.0, 64)


def _engine(params, state=None, grid=GRID129):
    net = q.build_one_sided_cavity(params, input_state=state or q.InputState.vacuum())
    return q.solve_unsym_spectra(net, grid), q.solve_susceptibilities(net, grid)


def test_criterion_01_referred_residuals_vanish_in_vacuum():
    start = time.perf_counter()
    for params in SWEEP:
        uns, susc = _engine(params)
        report = q.constraint_report(uns, susc)
        norm = q.normalize(q.symmetrize(uns), susc)
        s_zz = norm.imprecision.values.real
        s_ff = norm.force.values.real
        assert np.all(np.abs(report.product_residual) <= 1e-9 * (s_zz * s_ff))
        assert np.all(np.abs(report.correlation_residual) <= 1e-9 * (
            np.abs(susc.chi_ff.values.imag) * s_zz + HBAR))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"


def test_criterion_02_gap_zero_in_vacuum_positive_and_monotone_thermal():
    start = time.perf_counter()
    for params in SWEEP:
        uns, susc = _engine(params)
        gap = q.constraint_report(uns, susc).uncertainty_gap
        sym = q.symmetrize(uns)
        scale = sym.s_zz.values.real * sym.s_ff.values.real
        assert np.all(np.abs(gap) <= 1e-9 * scale)

        previous = gap
        for n in (0.5, 1.0, 2.0):
            gap_t = q.constraint_report(*_engine(params, q.InputState.thermal(n))
                                        ).uncertainty_gap
            assert np.all(gap_t > 0.0)
            assert np.all(gap_t > previous)
            previous = gap_t
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"


def test_criterion_03_engine_matches_closed_forms():
    for params in SWEEP:
        uns, susc = _engine(params)
        sym = q.symmetrize(uns)
        ref_susc = q.cavity_susceptibilities(params, GRID129)
        ref_sym = q.cavity_spectra(params, GRID129)
        pairs = [
            (susc.chi_zf.values, ref_susc.chi_zf.values),
            (susc.chi_ff.values, ref_susc.chi_ff.values),
            (sym.s_zz.values, ref_sym.s_zz.values),
            (sym.s_zf.values, ref_sym.s_zf.values),
            (sym.s_ff.values, ref_sym.s_ff.values),
        ]
        for got, ref in pairs:
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-9 * scale


def test_criterion_04_fluctuation_dissipation_residual():
    for params in (q.CavityParams(gamma=2.0, delta=0.5, gbar=1.3, theta=0.4),
                   q.CavityParams(gamma=0.3, delta=-1.7, gbar=0.8, theta=-0.9)):
        uns, susc = _engine(params)
        residual = q.kubo_check(uns.s_ff, susc.chi_ff, susc.units).values.real
        scale = np.max(np.abs(susc.chi_ff.values.imag))
        assert np.max(np.abs(residual)) <= 1e-9 * scale

    rng = np.random.default_rng(7)
    n_modes, n_lines = 2, 2
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    a -= (np.max(a.real.diagonal()) + 1.0 + np.max(np.abs(a))) * np.eye(n_modes)
    b = rng.normal(size=(n_modes, n_lines)) + 1j * rng.normal(size=(n_modes, n_lines))
    c = rng.normal(size=(n_lines, n_modes)) + 1j * rng.normal(size=(n_lines, n_modes))
    net = q.LinearNetwork(
        drift=a, input_coupling=b, output_coupling=c,
        feedthrough=np.eye(n_lines, dtype=complex),
        force=q.Observable(mode_quad=rng.normal(size=2 * n_modes),
                           output_quad=np.zeros(2 * n_lines)),
        readout=q.Observable(mode_quad=np.zeros(2 * n_modes),
                             output_quad=rng.normal(size=2 * n_lines)))
    uns = q.solve_unsym_spectra(net, GRID129)
    susc = q.solve_susceptibilities(net, GRID129)
    residual = q.kubo_check(uns.s_ff, susc.chi_ff, susc.units).values.real
    scale = np.max(np.abs(susc.chi_ff.values.imag))
    assert np.max(np.abs(residual)) <= 1e-9 * scale


def test_criterion_05_qubit_rates_and_optimal_angle():
    canonical = q.CavityParams(gamma=2.0, delta=0.0, gbar=1.0,
                               theta=math.pi / 2)
    res = q.qubit_rates(canonical)
    assert abs(res.gamma_meas - 2.0) <= 1e-9
    assert abs(res.gamma_phi - 2.0) <= 1e-9
    assert abs(res.ratio - 1.0) <= 1e-9

    def ratio_at(gamma, delta, theta):
        try:
            return q.qubit_rates(q.CavityParams(
                gamma=gamma, delta=delta, gbar=1.0, theta=theta)).ratio
        except q.DegenerateReadoutError:
            return math.inf

    rng = np.random.default_rng(31)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 2001)
    for _ in range(20):
        gamma = float(rng.uniform(0.1, 4.0))
        delta = float(rng.uniform(-3.0, 3.0))
        if abs(delta) < 1e-3:
            delta = 1e-3 if delta >= 0 else -1e-3
        ratios = np.array([ratio_at(gamma, delta, th) for th in thetas])
        assert np.all(ratios >= 1.0)
        best = int(np.argmin(ratios))
        lo = thetas[max(best - 1, 0)]
        hi = thetas[min(best + 1, thetas.size - 1)]
        found = optimize.minimize_scalar(
            lambda th: ratio_at(gamma, delta, th),
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-10}).x
        expected = -math.atan(gamma / delta)
        wrapped = (found - expected + math.pi / 2) % math.pi - math.pi / 2
        assert abs(wrapped) <= 1e-6, (gamma, delta, found, expected)


def test_criterion_06_resolved_sideband_cross_correlation():
    omega_m = 1.0
    grid = q.FrequencyGrid(np.array([-omega_m, 0.0, omega_m]))
    for ratio in (1e-2, 1e-3):
        gamma = ratio * omega_m
        for sign in (+1.0, -1.0):
            params = q.CavityParams(gamma=gamma, delta=sign * omega_m,
                                    gbar=0.7, theta=0.3)
            susc = q.cavity_susceptibilities(params, grid)
            norm = q.normalize(q.cavity_spectra(params, grid), susc)
            s_zf = norm.cross.values[2]
            assert abs(s_zf - sign * 0.5j * HBAR) <= 5.0 * (HBAR / 2) * ratio
            if ratio == 1e-3:
                im_chi = susc.chi_ff.values[2].imag
                target = -sign * HBAR * params.gbar**2 / gamma
                assert abs(im_chi - target) <= 0.01 * abs(target)


def test_criterion_07_sideband_asymmetry_thermometry():
    start = time.perf_counter()
    params = q.CavityParams(gamma=0.05, delta=0.0, gbar=7e-6, theta=0.0)
    for n in (0.5, 1.0, 2.0, 5.0, 10.0):
        osc = q.MechOscillator(omega_m=1.0, gamma_m=1e-6, mass=1.0,
                               n_occupation=n)
        grid = q.asymmetry_grid(params, osc)
        result = q.sideband_asymmetry(params, osc, grid)
        expected = (n + 1.0) / n
        assert abs(result.ratio - expected) <= 0.02 * expected
        if n == 2.0:
            assert abs(result.ratio - 1.5) <= 0.02 * 1.5
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"thermometry sweep took {elapsed:.3f}s"


def test_criterion_08_mimo_determinant_classification():
    params_a = q.CavityParams(gamma=2.0, delta=0.5, gbar=1.3, theta=0.4)
    params_b = q.CavityParams(gamma=0.7, delta=-1.1, gbar=0.9, theta=-0.2)

    def dets_and_scale(sets):
        mat = q.assemble_mimo_matrix(sets)
        dets, _ = q.mimo_quantum_limit(mat)
        scale = np.prod(np.abs(np.diagonal(mat, axis1=1, axis2=2)), axis=1)
        return dets, scale

    vac_a, _ = _engine(params_a)
    dets, scale = dets_and_scale([vac_a])
    assert np.all(np.abs(dets) <= 1e-9 * scale)

    vac_b, _ = _engine(params_b)
    dets, scale = dets_and_scale([vac_a, vac_b])
    assert np.all(np.abs(dets) <= 1e-9 * scale)

    hot_a, _ = _engine(params_a, q.InputState.thermal(1.0))
    dets, _ = dets_and_scale([hot_a])
    assert np.all(dets > 0.0)

    hot_b, _ = _engine(params_b, q.InputState.thermal(0.5))
    dets, _ = dets_and_scale([hot_a, hot_b])
    assert np.all(dets > 0.0)


def test_criterion_09_nonselfadjoint_response_suppressed():
    rng = np.random.default_rng(13)
    nets = [q.build_one_sided_cavity(draw_cavity(rng)) for _ in range(20)]
    nets.append(q.build_one_sided_cavity(
        q.CavityParams(gamma=2.0, delta=0.0, gbar=1.0, theta=math.pi / 2)))
    for net in nets:
        susc = q.solve_susceptibilities(net, GRID129)
        bound = 1e-12 * np.abs(susc.chi_zf.values)
        assert np.all(np.abs(susc.chi_zz.values) <= bound)
        assert np.all(np.abs(susc.chi_fz.values) <= bound)


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    runs = [
        (tmp_path / "s.csv",
         ["spectra", "--delta", "0.4", "--input", "thermal:0.5",
          "--n-half", "32"]),
        (tmp_path / "c.json",
         ["check", "--theta", "-0.3", "--format", "json", "--n-half", "16"]),
    ]
    for out, argv in runs:
        argv = argv + ["--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    rng = np.random.default_rng(97)
    commands = ("spectra", "check", "qubit", "mech", "mimo-check")
    states = ("vacuum", "thermal:{}", "squeezed:{},{}")
    for _ in range(50):
        template = rng.choice(states)
        state = template.format(
            repr(float(rng.uniform(0.0, 3.0))),
            repr(float(rng.uniform(-math.pi, math.pi))))
        cfg = RunConfig(
            command=str(rng.choice(commands)),
            gamma=float(10.0 ** rng.uniform(-3, 1)),
            delta=float(rng.choice([rng.uniform(-3, 3),
                                    -(10.0 ** rng.uniform(-320, -1))])),
            gbar=float(10.0 ** rng.uniform(-7, 1)),
            theta=float(rng.uniform(-math.pi, math.pi)),
            omega_max=float(rng.uniform(0.5, 20.0)),
            n_half=int(rng.integers(1, 500)),
            input_state=state,
            omega_m=float(rng.uniform(0.1, 10.0)),
            gamma_m=float(10.0 ** rng.uniform(-8, -2)),
            mass=float(10.0 ** rng.uniform(-2, 2)),
            n_occ=float(rng.uniform(0.0, 20.0)),
            window_halfwidth=float(rng.uniform(5.0, 80.0)),
            window_points=int(rng.integers(2, 9000)),
            single_sided=bool(rng.integers(0, 2)),
            fmt=str(rng.choice(["csv", "json"])),
            out=None if rng.integers(0, 2) else f"out_{rng.integers(1e6)}.dat",
            mimo_input=None if rng.integers(0, 2) else "blocks.csv",
        )
        assert parse_config(cfg.to_argv()) == cfg
