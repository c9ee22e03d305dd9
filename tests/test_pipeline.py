import dataclasses
import re

import numpy as np
import pytest

from rodhom import fem, pipeline as pl, transform as tr
from rodhom.geometry import (ProductMesh, build_rectangle, compute_moments,
                             cross_mass, is_centrally_symmetric)
from rodhom.homogenize import rod_tensor
from rodhom.material import ElasticityTensor, MaterialProfile, make_isotropic

from support_embedding import cross_embedding_columns, limit_resolvent_loop
from support_transform import line_error_norm_loop, line_inner_loop

NY = 8


def layered_profile(contrast=5.0):
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                            (0.0, 0.5, make_isotropic(contrast, contrast))])


@pytest.fixture(scope="module")
def forms():
    return fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 4, 4), NY))


@pytest.fixture(scope="module")
def load(forms):
    return pl.make_loads(forms.mesh.cross, NY, 16, 6.0 / 16, "rod",
                         n_loads=1, seed=3)[0]


def test_config_validation():
    # a regime outside stretch, bend, rod or none; no order, or one without a
    # norm; no load, which would leave every row inconclusive; a box that
    # is not positive; a grid entry that is not a positive integer; and a
    # value of the wrong type, which must not run into an empty report or a
    # TypeError partway through a study. The error names the field.
    for bad in ({"gamma": -2.0}, {"delta": -0.1}, {"momentum_variant": "bogus"},
                {"n_grid": (8, 12, 16)}, {"regimes": ("rods",)}, {"regimes": ()},
                {"orders": ()}, {"orders": (0, 3)}, {"orders": (True,)},
                {"n_loads": 0}, {"n_loads": 2.5}, {"n_loads": True}, {"seed": -1},
                {"slope_margin": -1.0}, {"gamma": "0"}, {"s_inf": 1},
                {"length": -6.0}, {"length": 0.0},
                {"n_grid": (8, 12, 16, 0)}, {"n_grid": (8, 12, 16, -24)},
                {"n_grid": (8, 12, 16, 24.5)}, {"n_grid": (8, 12, 16, True)}):
        (field, value), = bad.items()
        want = "^%s must be .*, not %s$" % (field, re.escape(repr(value)))
        with pytest.raises(ValueError, match=want):
            pl.ExperimentConfig(**bad)


def test_limit_matches_fiber_pullback(forms, load):
    for regime in ("rod", "stretch", "bend"):
        a = pl.limit_resolvent(forms, load, 0.0, regime)
        b = pl.fiber_pullback_resolvent(forms, load, 0.0, regime)
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) < 1e-10 * scale


def test_limit_resolvent_matches_frequency_loop(forms, load):
    for regime in ("rod", "stretch", "bend"):
        for variant in ("eps", "zero"):
            for use_xi in (True, False):
                got = pl.limit_resolvent(forms, load, 0.3, regime, use_xi, variant).values
                want = limit_resolvent_loop(forms, load, 0.3, regime, use_xi, variant).values
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_reference_selfadjoint(forms):
    eps = 6.0 / 16
    f, g = pl.make_loads(forms.mesh.cross, NY, 16, eps, "rod", n_loads=2, seed=5)
    R = pl.LineResolvent(forms, eps, 0.0)
    lhs = pl.line_inner(forms, R.apply(f), g)
    rhs = pl.line_inner(forms, f, R.apply(g))
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_line_norms_match_fiber_loop(forms, load):
    # the whole-bundle norms and inner product against their sums over
    # single fibers
    for kind in ("l2", "h1"):
        for c in (None, "12", "3"):
            want = line_error_norm_loop(forms, load, kind, c)
            assert abs(pl.line_error_norm(forms, load, kind, c) - want) <= 1e-13 * want
    other = pl.make_loads(forms.mesh.cross, NY, 16, load.eps, "rod", n_loads=1, seed=4)[0]
    g = load.like(load.values + 0.5j * other.values)
    want = line_inner_loop(forms, load, g)
    assert abs(pl.line_inner(forms, load, g) - want) <= 1e-13 * abs(want)


def test_zero_load(forms):
    z = tr.LineField(np.zeros((16 * NY, forms.mesh.cross.n_nodes * 3)), 0.25, NY)
    assert np.max(np.abs(pl.LineResolvent(forms, 0.25, 0.0).apply(z).values)) == 0.0
    assert np.max(np.abs(pl.limit_resolvent(forms, z, 0.0, "rod").values)) < 1e-15


def test_reference_energy_bound(forms, load):
    R = pl.LineResolvent(forms, load.eps, 0.0)
    u = R.apply(load)
    nu = pl.line_inner(forms, u, u).real
    nf = pl.line_inner(forms, load, load).real
    assert nu <= nf * (1 + 1e-12)


def test_reference_single_fiber_support(forms):
    n_c = forms.mesh.cross.n_nodes
    S = 16 * NY
    p = np.arange(S) // NY
    y = -0.5 + (np.arange(S) % NY) / NY
    k0 = 5
    vals = np.outer(np.exp(2j * np.pi * k0 * (p + y) / 16), np.ones(3 * n_c))
    f = tr.LineField(vals, 0.25, NY)
    u = pl.LineResolvent(forms, 0.25, 0.0).apply(f)
    b = tr.gelfand(u)
    mags = np.linalg.norm(b.values.reshape(16, -1), axis=1)
    assert np.max(np.delete(mags, k0)) < 1e-12 * mags[k0]


def test_zero_frequency_mode(forms):
    # a constant-in-x3 load is handled by the weight matrix alone
    md = compute_moments(forms.mesh.cross)
    n_c = forms.mesh.cross.n_nodes
    rng = np.random.default_rng(8)
    c = rng.standard_normal(3 * n_c)
    vals = np.tile(c, (16 * NY, 1))
    f = tr.LineField(vals, 0.25, NY)
    out = pl.limit_resolvent(forms, f, 0.0, "rod")
    Mw = cross_mass(forms.mesh.cross)
    E0 = cross_embedding_columns(forms.mesh.cross, 0.0, "rod")
    mom = E0.conj().T @ (Mw @ c.reshape(n_c, 3)).reshape(-1)
    expected = E0 @ np.linalg.solve(md.C_rod, mom)
    assert np.max(np.abs(out.values - expected[None, :])) < 1e-12 * np.max(np.abs(expected))


def test_stretch_single_frequency_oracle(forms):
    # torsion/extension profile at one frequency against a 2x2 hand solve
    cross = forms.mesh.cross
    md = compute_moments(cross)
    rt = rod_tensor(forms)
    L, N, eps = 6.0, 16, 6.0 / 16
    theta = 2 * np.pi / L
    S = N * NY
    x3 = eps * (np.arange(S) // NY + (-0.5 + (np.arange(S) % NY) / NY))
    c = np.array([0.7, -0.3])
    prof = np.zeros((cross.n_nodes, 3), dtype=complex)
    prof[:, 0] = cross.nodes[:, 1] * c[0]
    prof[:, 1] = -cross.nodes[:, 0] * c[0]
    prof[:, 2] = c[1]
    f = tr.LineField(np.outer(np.exp(1j * theta * x3), prof.reshape(-1)), eps, NY)
    gamma = 0.0
    mh = np.linalg.solve(eps ** (-gamma) * theta ** 2 * rt.A_stretch + md.C_stretch,
                         md.C_stretch @ c)
    expected = np.outer(np.exp(1j * theta * x3),
                        (cross_embedding_columns(cross, 0.0, "stretch") @ mh))
    out = pl.limit_resolvent(forms, f, gamma, "stretch")
    assert np.max(np.abs(out.values - expected)) < 1e-10 * np.max(np.abs(expected))


def test_make_loads_properties(forms):
    cross = forms.mesh.cross
    Mw = cross_mass(cross)
    a = pl.make_loads(cross, NY, 16, 0.25, "bend", n_loads=2, seed=1)
    b = pl.make_loads(cross, NY, 16, 0.25, "bend", n_loads=2, seed=1)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    for f in a:
        assert abs(tr.line_norm_sq(f, Mw) - 1.0) < 1e-12
    # bend parity: in-plane part even, third component odd under x -> -x
    from rodhom.geometry import is_centrally_symmetric
    _, pairing = is_centrally_symmetric(cross)
    v = a[0].values.reshape(a[0].S, -1, 3)
    vr = v[:, pairing, :]
    assert np.max(np.abs(v[:, :, :2] - vr[:, :, :2])) < 1e-12
    assert np.max(np.abs(v[:, :, 2] + vr[:, :, 2])) < 1e-12


def test_make_loads_parity_is_project_symmetry(forms):
    # the parity loads are the draws of the unprojected family, projected
    # slab by slab and renormalised
    cross = forms.mesh.cross
    Mw = cross_mass(cross)
    _, pairing = is_centrally_symmetric(cross)
    raw = pl.make_loads(cross, NY, 16, 0.25, "rod", n_loads=2, seed=4)
    for regime in ("bend", "stretch"):
        got = pl.make_loads(cross, NY, 16, 0.25, regime, n_loads=2, seed=4)
        for f, g in zip(raw, got):
            p = f.like([fem.project_symmetry(v, regime, forms.mesh, pairing) for v in f.values])
            want = p.values / np.sqrt(tr.line_norm_sq(p, Mw))
            assert np.max(np.abs(g.values - want)) < 1e-13 * np.max(np.abs(want))


def test_parity_regimes_require_rod_symmetry(monkeypatch):
    C = make_isotropic(1.0, 1.0).voigt.copy()
    C[0, 4] = C[4, 0] = 0.1      # couples e11 to 2e13: no rod symmetry
    forms = fem.assemble(MaterialProfile.constant(ElasticityTensor(C)),
                         ProductMesh(build_rectangle(1.0, 2, 2), 4))
    rng = np.random.default_rng(2)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    cfg = pl.ExperimentConfig(n_grid=(4, 6, 8, 10), n_loads=1, regimes=("rod", "bend"))

    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised before the material check")

    with monkeypatch.context() as m:
        m.setattr(fem.spla, "splu", no_factorisation)
        with pytest.raises(ValueError, match="rod material symmetry"):
            pl.rate_experiment(cfg, forms)
        with pytest.raises(ValueError, match="rod material symmetry"):
            pl.fiber_rate_study(forms, {"general_chi2": f, "stretch": f})
    # the regimes that do not split by parity still run
    rows = pl.rate_experiment(dataclasses.replace(cfg, regimes=("rod",)), forms).rows
    assert all(np.all(np.isfinite(r["errs"])) for r in rows)
    out = pl.fiber_rate_study(forms, {"general_chi2": f, "general_chi4": f}, chi_grid=(0.4, 0.2))
    assert len(out["rows"]) == 2 * 2 * (1 + 2)   # chi, order, components


def test_theory_slope_table():
    assert pl.theory_slope("stretch", "all", 0, 0.0) == 1.0
    assert pl.theory_slope("stretch", "all", 1, 0.0) == 1.0
    assert pl.theory_slope("stretch", "all", 2, 0.0) == 2.0
    assert pl.theory_slope("rod", "12", 0, 0.0) == 0.5
    assert pl.theory_slope("rod", "3", 0, 0.0) == 1.0
    assert pl.theory_slope("rod", "3", 2, 0.0) == 1.5
    assert pl.theory_slope("bend", "12", 1, 0.0) == 0.0
    assert pl.theory_slope("bend", "3", 1, 0.0) == 0.5
    assert pl.theory_slope("bend", "3", 0, 0.0, momentum_variant="zero") == 0.5
    # delta beyond (gamma+2)/4 starts eating into the bend rate
    assert pl.theory_slope("bend", "3", 0, 0.0, delta=1.0) == 0.5
    assert pl.theory_slope("bend", "3", 0, 2.0) == 2.0


def test_stretch_rates_small(forms):
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), regimes=("stretch",),
                              orders=(0, 2), n_loads=1)
    rep = pl.rate_experiment(cfg, forms)
    assert all(r["conclusive"] for r in rep.rows)
    for r in rep.rows:
        assert r["slope_fit"] >= r["slope_theory"] - 0.2
    rows = rep.csv_rows()
    assert len(rows) == 2 * 4
    assert set(rows[0]) == {"regime", "component", "order", "flags", "eps",
                            "err", "slope_fit", "slope_theory", "pass"}


def test_rate_experiment_bit_stable(forms):
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), regimes=("stretch",),
                              orders=(0,), n_loads=1)
    a = pl.rate_experiment(cfg, forms)
    b = pl.rate_experiment(cfg, forms)
    assert a.rows[0]["errs"] == b.rows[0]["errs"]
    assert a.rows[0]["slope_fit"] == b.rows[0]["slope_fit"]


def test_xi_ablation_small(forms):
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), orders=(0,), n_loads=1)
    rep = pl.xi_ablation(cfg, forms)
    row = rep.rows[0]
    assert row["conclusive"]
    assert row["slope_fit"] >= 1.8


def test_corrector_fields_scale_with_eps(forms):
    # first-order corrections shrink with the fiber quasimomenta
    errs = []
    for N in (8, 16):
        eps = 6.0 / N
        f = pl.make_loads(forms.mesh.cross, NY, N, eps, "stretch",
                          n_loads=1, seed=2)[0]
        u1, _ = pl.corrector_fields(forms, f, 0.0, "stretch")
        errs.append(pl.line_error_norm(forms, u1))
    assert errs[1] < errs[0]


def test_report_json_roundtrip(forms, tmp_path):
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), regimes=("stretch",),
                              orders=(0,), n_loads=1)
    rep = pl.rate_experiment(cfg, forms)
    p = tmp_path / "rates.csv"
    rep.write_csv(p)
    assert p.read_text().startswith("regime,")


@pytest.fixture()
def factorisations(forms, monkeypatch):
    """Matrix sizes of every sparse LU made while the test runs, after the
    cell basis and the quotient LU (cached on the forms) are built."""
    rod_tensor(forms)
    forms.quotient
    sizes = []
    splu = fem.spla.splu

    def counted(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counted)
    return sizes


def test_line_resolvent_shares_conjugate_fibers(forms, factorisations):
    # fiber -chi is the conjugated solve of fiber |chi|: bitwise the
    # per-fiber factorisations, including the unpaired Nyquist fiber -pi
    N, eps = 8, 6.0 / 8
    f = pl.make_loads(forms.mesh.cross, NY, N, eps, "rod", n_loads=1, seed=3)[0]
    R = pl.LineResolvent(forms, eps, 0.0)
    got = R.apply(f)
    R.apply(f)
    assert len(factorisations) == N // 2 + 1
    b = tr.gelfand(f)
    assert b.chis.min() == -np.pi
    out = np.zeros_like(b.values)
    for k, chi in enumerate(b.chis):
        solver = fem.ResolventSolver(forms, float(chi), R.t)
        out[k] = solver.solve(b.fiber(k)).reshape(b.n_y, -1)
    assert np.array_equal(got.values, tr.gelfand_inverse(b.like(out)).values)


def test_rate_experiment_factorises_once_per_eps(forms, factorisations):
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), regimes=("stretch", "bend"),
                              n_loads=1)
    rep = pl.rate_experiment(cfg, forms)
    assert len(factorisations) == sum(N // 2 + 1 for N in cfg.n_grid)
    single = [pl.rate_experiment(dataclasses.replace(cfg, regimes=(r,)), forms)
              for r in cfg.regimes]
    assert rep.rows == single[0].rows + single[1].rows


def test_fiber_rate_study_shares_couplings(forms, factorisations):
    # bend shares chi^-4 with general_chi4, stretch chi^-2 with general_chi2;
    # rows stay regime-major, as the single-regime studies concatenated
    _, pairing = is_centrally_symmetric(forms.mesh.cross)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    loads = {"stretch": fem.project_symmetry(f, "stretch", forms.mesh, pairing),
             "bend": fem.project_symmetry(f, "bend", forms.mesh, pairing),
             "general_chi2": f, "general_chi4": f}
    chi_grid = (0.4, 0.2)
    study = pl.fiber_rate_study(forms, loads, chi_grid)
    assert len(factorisations) == 2 * len(chi_grid)
    single = [pl.fiber_rate_study(forms, {r: g}, chi_grid) for r, g in loads.items()]
    assert study["rows"] == [row for s in single for row in s["rows"]]
    assert study["slopes"] == [row for s in single for row in s["slopes"]]
