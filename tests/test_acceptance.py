"""End-to-end acceptance checks, one numbered pass/fail line each.

Slope checks are one-sided (fit >= target - margin): the grids are small
enough that superconvergence on the last interval is common and harmless,
while a shortfall is the actual failure mode.
"""

import time

import numpy as np
import pytest

from rodhom import fem, fiber, pipeline as pl, transform as tr
from rodhom.geometry import (ProductMesh, build_rectangle, compute_moments,
                             cross_mass, is_centrally_symmetric)
from rodhom.homogenize import rod_tensor
from rodhom.material import MaterialProfile, make_isotropic

from support_contour import contour_quadrature_check
from support_embedding import C_rod_chi
from support_torsion import torsion_constant
from support_transform import bundle_norm_sq, fiber_mean, momentum_real


def layered_profile(contrast=5.0):
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                            (0.0, 0.5, make_isotropic(contrast, contrast))])


@pytest.fixture(scope="module")
def forms():
    return fem.assemble(layered_profile(),
                        ProductMesh(build_rectangle(1.0, 4, 4), 8))


@pytest.fixture(scope="module")
def fiber_loads(forms):
    _, pairing = is_centrally_symmetric(forms.mesh.cross)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    fs = fem.project_symmetry(f, "stretch", forms.mesh, pairing)
    fb = fem.project_symmetry(f, "bend", forms.mesh, pairing)
    fs /= np.sqrt(forms.norm_sq_l2(fs))
    fb /= np.sqrt(forms.norm_sq_l2(fb))
    fn = f / np.sqrt(forms.norm_sq_l2(f))
    return {"stretch": fs, "bend": fb, "general_chi2": fn, "general_chi4": fn}


@pytest.fixture(scope="module")
def rates(forms):
    # shared rate experiment for checks 7 and 8
    cfg = pl.ExperimentConfig(orders=(0, 1, 2))
    t0 = time.time()
    rep = pl.rate_experiment(cfg, forms)
    return rep, time.time() - t0


def _report(num, label, ok):
    print("acceptance %02d %-28s %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance %02d (%s) failed" % (num, label)


def _row(rep, regime, component, order):
    for r in rep.rows:
        if (r["regime"], r["component"], r["order"]) == (regime, component, order):
            return r
    raise KeyError((regime, component, order))


def test_01_effective_tensor_sanity():
    t0 = time.time()
    forms = fem.assemble(layered_profile(),
                         ProductMesh(build_rectangle(1.0, 8, 8), 16))
    rt = rod_tensor(forms)
    A = rt.A_rod
    scale = np.max(np.abs(A))
    ok = np.max(np.abs(A - A.T)) < 1e-10 * scale
    ok = ok and np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) > 0
    ok = ok and np.max(np.abs(A[:2, 2:])) < 1e-8 * scale
    ok = ok and (time.time() - t0) < 60.0
    _report(1, "effective tensor sanity", ok)


def test_02_classical_limits():
    t0 = time.time()
    forms = fem.assemble(MaterialProfile.constant(make_isotropic(1.0, 1.0)),
                         ProductMesh(build_rectangle(1.0, 10, 10), 2))
    rt = rod_tensor(forms)
    lam = mu = 1.0
    E = mu * (3 * lam + 2 * mu) / (lam + mu)  # 2.5
    ok = abs(rt.A_stretch[1, 1] - E) < 0.02 * E
    ok = ok and abs(rt.A_bend[0, 0] - E / 12) < 0.02 * E / 12
    ok = ok and abs(rt.A_bend[1, 1] - E / 12) < 0.02 * E / 12
    J = torsion_constant(n=80)
    ok = ok and abs(rt.A_stretch[0, 0] - mu * J) < 0.05 * mu * J
    ok = ok and (time.time() - t0) < 120.0
    _report(2, "classical limits", ok)


def test_03_spectral_scalings(forms):
    data = fiber.spectrum_scaling(forms, pl.CHI_SWEEP, k=5)
    ok = True
    for key in ("ratio_bend", "ratio_stretch"):
        for i in range(2):
            vals = np.array([r[key][i] for r in data])
            ok = ok and (np.max(vals) / np.min(vals) - 1.0) < 0.2
    l5 = np.array([r["lambda5"] for r in data])
    ok = ok and np.max(l5) / np.min(l5) < 2.0
    vals0, _ = fem.smallest_eigs(forms, 0.0, 5)
    ok = ok and np.all(np.abs(vals0[:4]) <= 1e-8) and vals0[4] > 1e-3
    _report(3, "spectral scalings", ok)


def test_04_fiber_rates(forms, fiber_loads):
    t0 = time.time()
    study = pl.fiber_rate_study(forms, fiber_loads)
    ok = all(s["passed"] for s in study["slopes"])
    ok = ok and (time.time() - t0) < 600.0
    _report(4, "fiber approximation rates", ok)


def test_05_exact_identities(forms):
    cross = forms.mesh.cross
    Mw = cross_mass(cross)
    md = compute_moments(cross)
    N, NY, EPS = 16, forms.mesh.n_y, 0.25
    rng = np.random.default_rng(3)
    d = 3 * cross.n_nodes
    S = N * NY
    p = np.arange(S) // NY
    y = -0.5 + (np.arange(S) % NY) / NY
    vals = np.zeros((S, d), dtype=complex)
    for k, l in [(0, 0), (1, 0), (-2, 1), (5, -2), (3, 1)]:
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vals += np.outer(np.exp(2j * np.pi * (k + N * l) * (p + y) / N), c)
    lf = tr.LineField(vals, EPS, NY)
    scale = np.max(np.abs(lf.values))

    b = tr.gelfand(lf)
    ok = abs(tr.line_norm_sq(lf, Mw) - bundle_norm_sq(b, Mw)) \
        < 1e-12 * tr.line_norm_sq(lf, Mw)
    ok = ok and np.max(np.abs(tr.gelfand_inverse(b).values - lf.values)) < 1e-12 * scale

    xa = tr.xi_smoothing(lf)
    xb = fiber_mean(lf)
    ok = ok and np.max(np.abs(xa.values - xb.values)) < 1e-10 * scale
    ok = ok and np.max(np.abs(tr.xi_smoothing(xa).values - xa.values)) \
        < 1e-12 * scale

    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    for which, nd in [("stretch", 2), ("bend", 2), ("general_chi2", 4)]:
        ops = fiber.FiberOps(forms, 0.3, which)
        mvec = rng.standard_normal(nd) + 1j * rng.standard_normal(nd)
        lhs = np.vdot(f, forms.M @ (ops.E @ mvec))
        rhs = np.vdot(ops.momentum(f), mvec)
        ok = ok and abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1)
    C = fiber.FiberOps(forms, 0.3, "general_chi2").C
    ok = ok and np.max(np.abs(C - C_rod_chi(md, 0.3))) < 1e-12

    bb = tr.gelfand(lf)
    moms = np.array([fiber.FiberOps(forms, bb.chis[k], "general_chi2").momentum(bb.fibers()[k])
                     for k in range(N)])
    lifted = tr.FiberBundle(np.broadcast_to(moms[:, None, :], (N, NY, 4)).copy(),
                            bb.chis, EPS)
    lhs = tr.gelfand_inverse(lifted).values
    rhs = momentum_real(tr.xi_smoothing(lf), "rod", cross)
    ok = ok and np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))
    _report(5, "exact identities", ok)


def test_06_contour_equivalence(forms, fiber_loads):
    ok = True
    for chi in (0.4, 0.2, 0.1):
        out = contour_quadrature_check(forms, chi, 0.125, 0.0,
                                       fiber_loads["stretch"], regime="stretch")
        ok = ok and out["leading"] < 1e-5 and out["corrector"] < 1e-5
        ok = ok and out["refined"] < 1e-5
        outb = contour_quadrature_check(forms, chi, 0.125, 0.0,
                                        fiber_loads["bend"], regime="bend")
        ok = ok and outb["leading"] < 1e-5 and outb["corrector"] < 1e-5
    _report(6, "contour equivalence", ok)


def test_07_leading_order_rates(rates):
    rep, elapsed = rates
    ok = elapsed < 900.0
    ok = ok and _row(rep, "rod", "12", 0)["slope_fit"] >= 0.4
    ok = ok and _row(rep, "rod", "3", 0)["slope_fit"] >= 0.9
    ok = ok and _row(rep, "stretch", "all", 0)["slope_fit"] >= 0.9
    ok = ok and _row(rep, "bend", "12", 0)["slope_fit"] >= 0.4
    ok = ok and _row(rep, "bend", "3", 0)["slope_fit"] >= 0.9
    for r in rep.rows:
        if r["order"] == 0:
            ok = ok and r["passed"] and r["conclusive"]
    _report(7, "leading-order rates", ok)


def test_08_corrector_upgrades(rates):
    rep, _ = rates
    ok = True
    for r in rep.rows:
        if r["order"] == 1:
            ok = ok and r["conclusive"] and r["slope_fit"] >= r["slope_theory"] - 0.1
    ok = ok and _row(rep, "stretch", "all", 1)["slope_theory"] == 1.0
    ok = ok and _row(rep, "stretch", "all", 2)["slope_fit"] >= 1.8
    ok = ok and _row(rep, "bend", "12", 2)["slope_fit"] >= 0.9
    ok = ok and _row(rep, "bend", "3", 2)["slope_fit"] >= 1.35
    _report(8, "corrector upgrades", ok)


def test_09_ablations(forms):
    cfg = pl.ExperimentConfig(orders=(0,))
    rep = pl.ablation_experiment(cfg, forms)
    by_flag = {}
    for r in rep.rows:
        tag = r["flags"].split(",")[0]
        by_flag.setdefault(tag, []).append(r)
    ok = by_flag["ablation=xi"][0]["slope_fit"] >= 1.8
    m0 = {r["component"]: r for r in by_flag["ablation=momentum_zero"]}
    ok = ok and m0["3"]["slope_fit"] >= 0.4
    si = {r["component"]: r for r in by_flag["ablation=s_inf"]}
    ok = ok and si["12"]["slope_fit"] >= 0.4 and si["3"]["slope_fit"] >= 0.9
    for r in rep.rows:
        ok = ok and r["conclusive"]
    _report(9, "ablations", ok)


def test_10_kernel_residuals(forms, fiber_loads):
    worst = 0.0
    for regime, f in fiber_loads.items():
        power = -4 if regime in ("bend", "general_chi4") else -2
        for chi in (0.4, 0.2, 0.1):
            ch = fiber.build_chain(forms, chi, chi ** power, regime, f)
            nf = np.linalg.norm(fiber.apply_load_scaling(
                f, "s_abs_chi" if power == -4 else "none", chi))
            for _, res in ch.residuals:
                worst = max(worst, res / nf)
    _report(10, "kernel residuals", worst <= 1e-8)
