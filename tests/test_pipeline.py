import dataclasses
import re
import sys
import threading

import numpy as np
import pytest

from rodhom import fem, fiber, pipeline as pl, transform as tr
from rodhom.geometry import (ProductMesh, build_rectangle, compute_moments,
                             cross_mass, is_centrally_symmetric)
from rodhom.homogenize import rod_tensor
from rodhom.material import ElasticityTensor, MaterialProfile, make_isotropic

from support_embedding import cross_embedding_columns, limit_resolvent_loop
from support_sweep import fiber_rate_study_loop, spectrum_scaling_loop
from support_transform import (bundle_norm_sq, line_error_norm_loop, line_inner_loop,
                               rate_errors_loop)

NY = 8


def layered_profile(contrast=5.0):
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                            (0.0, 0.5, make_isotropic(contrast, contrast))])


@pytest.fixture(scope="module")
def forms():
    return fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 4, 4), NY))


def set_up_forms():
    """The forms of the module's cell with their rod tensor, and so the
    quotient LU, but no resolvent LU."""
    forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 4, 4), NY))
    forms.rod_tensor
    return forms


@pytest.fixture()
def fresh_forms():
    """set_up_forms, one per test: a count of resolvent factorisations must
    not depend on which tests ran first."""
    return set_up_forms()


@pytest.fixture(scope="module")
def load(forms):
    return pl.make_loads(forms.mesh.cross, NY, 16, 6.0 / 16, "rod",
                         n_loads=1, seed=3)[0]


def test_config_validation():
    # a regime outside stretch, bend, rod or none; no order, or one without a
    # norm; no load, which would leave every row inconclusive; a box that
    # is not positive; a grid entry that is not a positive integer; a grid
    # that does not refine, which fits a meaningless slope or reads the floor
    # at the wrong eps; a repeated order, which fails in the slope fit after
    # every solve, or a repeated regime, which runs and reports it twice; and
    # a value of the wrong type, which must not run into an empty report or
    # a TypeError partway through a study; and a bend-only variant with the
    # default regimes, which would flag the rod and stretch rows s_inf=1 with
    # unscaled loads, or fit momentum-zero rows against the plain rates. The
    # error names the field.
    for bad in ({"gamma": -2.0}, {"delta": -0.1}, {"momentum_variant": "bogus"},
                {"n_grid": (8, 12, 16)}, {"regimes": ("rods",)}, {"regimes": ()},
                {"orders": ()}, {"orders": (0, 3)}, {"orders": (True,)},
                {"n_loads": 0}, {"n_loads": 2.5}, {"n_loads": True}, {"seed": -1},
                {"slope_margin": -1.0}, {"gamma": "0"}, {"s_inf": 1},
                {"length": -6.0}, {"length": 0.0},
                {"n_grid": (8, 12, 16, 0)}, {"n_grid": (8, 12, 16, -24)},
                {"n_grid": (8, 12, 16, 24.5)}, {"n_grid": (8, 12, 16, True)},
                {"n_grid": (8, 8, 8, 8)}, {"n_grid": (32, 24, 16, 12, 8)},
                {"orders": (0, 0)}, {"regimes": ("rod", "rod")},
                {"s_inf": True}, {"momentum_variant": "zero"}):
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
        for use_xi in (True, False):
            got = pl.limit_resolvent(forms, load, 0.3, regime, use_xi).values
            want = limit_resolvent_loop(forms, load, 0.3, regime, use_xi).values
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
    b = tr.gelfand(load)
    for kind in ("l2", "h1"):
        for c in (None, "12", "3"):
            want = line_error_norm_loop(forms, load, kind, c)
            assert abs(pl.line_error_norm(forms, b, kind, c) - want) <= 1e-13 * want
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


@pytest.mark.parametrize("regime", pl.REGIMES)
def test_loads_reach_only_the_band(forms, regime):
    # every load of the family, on every N of the default grid and on the
    # least N with fibers out of the band, puts all but FFT rounding (at most
    # 4.0e-16 of its norm) on the fibers |j| <= LOAD_BAND that rate_experiment
    # keeps
    cfg = pl.ExperimentConfig()
    Mw = cross_mass(forms.mesh.cross)
    for N in (6, 7, *cfg.n_grid):
        for f in pl.make_loads(forms.mesh.cross, NY, N, cfg.length / N, regime,
                               n_loads=cfg.n_loads, seed=cfg.seed):
            b = tr.gelfand(f)
            out = np.abs(np.rint(b.chis * N / (2 * np.pi))) > pl.LOAD_BAND
            rest = tr.FiberBundle(b.values[out], b.chis[out], b.eps)
            assert np.sqrt(bundle_norm_sq(rest, Mw) / bundle_norm_sq(b, Mw)) <= 1e-13


def _reached_fibers_of_make_loads(forms, cfg, N, regime):
    """The fibers rate_experiment keeps of the Gelfand transforms of the
    make_loads family, scaled as the study scales them: its chis and the
    (n_loads, fibers, n_dof) stack."""
    eps = cfg.length / N
    out = []
    for f in pl.make_loads(forms.mesh.cross, NY, N, eps, regime, n_loads=cfg.n_loads,
                           seed=cfg.seed):
        if pl.LINE_REGIMES[regime].out_of_line:
            f = f.like(pl._scaled_load(cfg, f.values, eps))
        b = tr.gelfand(f)
        reached = np.abs(np.rint(b.chis * N / (2 * np.pi))) <= pl.LOAD_BAND
        out.append(b.fibers()[reached])
    return b.chis[reached], np.array(out)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 32])
@pytest.mark.parametrize("change", [{}, {"delta": 0.5}, {"s_inf": True, "regimes": ("bend",)}])
def test_load_fibers_are_the_transform_of_make_loads(forms, N, change):
    # the closed-form fibers of every regime's loads, projected, normalised
    # and scaled on the fibers, against the transformed line fields: where N
    # is below 2 LOAD_BAND + 1 the band aliases, and the short-scale modes
    # j = +-N land on chi = 0 at every N
    cfg = pl.ExperimentConfig(n_loads=3, seed=2, **change)
    chis, G0 = pl._load_fibers(forms, N, cfg.length / N, cfg.n_loads, cfg.seed)
    assert G0.shape == (cfg.n_loads, min(N, 2 * pl.LOAD_BAND + 1), forms.mesh.n_dof)
    family = pl._family_loads(cfg, G0, cfg.length / N)
    for regime in cfg.regimes:
        want_chis, want = _reached_fibers_of_make_loads(forms, cfg, N, regime)
        got = pl._regime_part(forms, G0, regime)(family[pl._takes_scaling(cfg, regime)])
        assert np.array_equal(chis, want_chis)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rate_experiment_makes_no_line_field(forms, monkeypatch):
    # the study draws its loads on their fibers: no make_loads, Gelfand
    # transform, FFT or line norm
    def forbidden(*args, **kwargs):
        raise AssertionError("the rate study left the fibers")

    for owner, name in ((pl, "make_loads"), (tr, "gelfand"), (tr, "gelfand_inverse"),
                        (tr, "line_norm_sq"), (np.fft, "fft"), (np.fft, "ifft")):
        monkeypatch.setattr(owner, name, forbidden)
    pl.rate_experiment(pl.ExperimentConfig(n_grid=(4, 8, 12, 16), orders=(0, 1, 2),
                                           n_loads=2), forms)


@pytest.mark.parametrize("kind", ["l2", "h1"])
def test_norm_pass_matches_line_norms_per_load(forms, kind):
    # the one norm pass over a stack of loads, per load and component
    # label, against the line norm summed fiber by fiber
    N, eps = 8, 6.0 / 8
    loads = pl.make_loads(forms.mesh.cross, NY, N, eps, "rod", n_loads=3, seed=7)
    E = np.array([tr.gelfand(f).fibers() for f in loads])
    norms = pl._load_error_norms(forms, E, tr.chi_values(N), eps, kind)
    for c in (None, "all", "12", "3"):
        assert norms[c].shape == (len(loads),)
        for f, got in zip(loads, norms[c]):
            want = line_error_norm_loop(forms, f, kind, c)
            assert abs(got - want) <= 1e-13 * want


def test_rate_experiment_builds_chains_on_the_band(forms, monkeypatch):
    # per (eps, |j|), |j| = 1 .. LOAD_BAND: one general chain on the
    # unprojected family, whose parity parts are the stretch and rod
    # correctors, and one bend chain, also where bend's loads are scaled;
    # the columns of each are the +chi and conjugated -chi fibers of every
    # load
    build_chain = pl.fiber.build_chain
    for change in ({}, {"delta": 0.5}):
        cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), orders=(0, 1, 2), n_loads=2, **change)
        calls = {}

        def counted(forms, chi, t, regime, f, **kwargs):
            calls.setdefault((t, regime), []).append((chi, f.shape))
            return build_chain(forms, chi, t, regime, f, **kwargs)

        monkeypatch.setattr(pl.fiber, "build_chain", counted)
        pl.rate_experiment(cfg, forms)
        assert sorted(calls) == sorted((eps ** -2.0, regime) for eps in
                                       (cfg.length / N for N in cfg.n_grid)
                                       for regime in ("bend", "general_chi2"))
        for (t, _), chains in calls.items():
            N = round(cfg.length * t ** 0.5)     # t = eps^-2 at gamma = 0
            modes = [round(chi * N / (2 * np.pi)) for chi, _ in chains]
            assert modes == list(range(1, pl.LOAD_BAND + 1))
            assert all(shape == (2 * cfg.n_loads, forms.mesh.n_dof) for _, shape in chains)


def _close(got, want, tol=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _rate_errors_per_regime(forms, cfg):
    """rate_experiment's worst error per eps with every regime on its own
    loads (the make_loads family, transformed, _reached_fibers_of_make_loads):
    its own reference solve and its own chain. Returns {(regime, component,
    order): [error per eps]}."""
    out = {}
    for N in cfg.n_grid:
        eps = cfg.length / N
        R = pl.LineResolvent(forms, eps, cfg.gamma)
        for regime in cfg.regimes:
            chis, own = _reached_fibers_of_make_loads(forms, cfg, N, regime)
            a0 = pl.fiber_limit(forms, chis, R.t, regime, own, cfg.momentum_variant)
            u1, u01 = pl.fiber_correctors(forms, chis, R.t, regime, own)
            approx = {0: a0, 1: a0 + u1, 2: a0 + u1 + u01}
            ref = R.solve(chis, own)
            for o in cfg.orders:
                norms = pl._load_error_norms(forms, ref - approx[o], chis, eps, pl._ORDER_NORM[o])
                for c in pl.LINE_REGIMES[regime].components:
                    out.setdefault((regime, c, o), []).append(float(np.max(norms[c])))
    return out


@pytest.mark.parametrize("change", [{}, {"delta": 0.5}, {"s_inf": True, "regimes": ("bend",)}],
                         ids=["plain", "delta", "s_inf"])
def test_rate_experiment_derives_each_regime_from_the_family(forms, change):
    # each regime's loads and reference, and the stretch and rod correctors
    # u1 and u0^(1), are k_r P_r of the family's solve and general chain:
    # against the solves and chains on the regime's own loads, to 1e-13
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), orders=(0, 1, 2), n_loads=2, seed=1,
                              **change)
    N = 12
    eps = cfg.length / N
    R = pl.LineResolvent(forms, eps, cfg.gamma)
    chis, G0 = pl._load_fibers(forms, N, eps, cfg.n_loads, cfg.seed)
    family = pl._family_loads(cfg, G0, eps)
    refs = dict(zip(family, R.solve(chis, np.array(list(family.values())))))
    general = pl.fiber_correctors(forms, chis, R.t, pl._FAMILY, G0)
    for regime in cfg.regimes:
        part, scaled = pl._regime_part(forms, G0, regime), pl._takes_scaling(cfg, regime)
        _, own = _reached_fibers_of_make_loads(forms, cfg, N, regime)
        _close(part(family[scaled]), own)
        _close(part(refs[scaled]), R.solve(chis, own))
        if regime != "bend":
            for got, want in zip(map(part, general),
                                 pl.fiber_correctors(forms, chis, R.t, regime, own)):
                _close(got, want)
    # and the study's errors, bend's from its own chain, against every
    # regime computed on its own
    want = _rate_errors_per_regime(forms, cfg)
    for r in pl.rate_experiment(cfg, forms).rows:
        ref = np.array(want[(r["regime"], r["component"], r["order"])])
        assert np.max(np.abs(np.array(r["errs"]) - ref) / ref) <= 1e-12


@pytest.fixture(params=["fewer", "one", "more"])
def misaligned(forms, request):
    """A bundle's fibers, with quasimomenta that do not match them one to
    one: the first five, the first alone, or one too many."""
    b = tr.gelfand(pl.make_loads(forms.mesh.cross, NY, 8, 0.75, "rod", n_loads=1, seed=3)[0])
    chis = {"fewer": b.chis[:5], "one": b.chis[:1], "more": np.append(b.chis, 0.1)}
    return chis[request.param], b.fibers()


def test_line_resolvent_rejects_misaligned_chis(forms, misaligned, monkeypatch):
    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised before the alignment check")

    monkeypatch.setattr(fem.spla, "splu", no_factorisation)
    with pytest.raises(tr.AlignmentError):
        pl.LineResolvent(forms, 0.75, 0.0).solve(*misaligned)


def test_fiber_limit_rejects_misaligned_chis(forms, misaligned):
    with pytest.raises(tr.AlignmentError):
        pl.fiber_limit(forms, misaligned[0], 0.75 ** -2, "rod", misaligned[1])


def test_fiber_correctors_rejects_misaligned_chis(forms, misaligned, monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("built a chain before the alignment check")

    monkeypatch.setattr(pl.fiber, "build_chain", no_chain)
    with pytest.raises(tr.AlignmentError):
        pl.fiber_correctors(forms, misaligned[0], 0.75 ** -2, "rod", misaligned[1])


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


def _unfactorised_forms(monkeypatch):
    """Fresh forms on a small cell, with every sparse LU made to fail: a
    call that reaches a factorisation raises AssertionError."""
    forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 4))

    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised before the regime check")

    monkeypatch.setattr(fem.spla, "splu", no_factorisation)
    return forms


@pytest.mark.parametrize("name", ["rods", "general_chi2"])
def test_line_functions_reject_unknown_regime(name, monkeypatch):
    # an unknown name, and a chain regime's, fail with the table's names
    # before anything is factorised
    forms = _unfactorised_forms(monkeypatch)
    f = pl.make_loads(forms.mesh.cross, 4, 8, 0.75, "rod", n_loads=1)[0]
    b = tr.gelfand(f)
    calls = [lambda: pl.make_loads(forms.mesh.cross, 4, 8, 0.75, name, n_loads=1),
             lambda: pl.limit_resolvent(forms, f, 0.0, name),
             lambda: pl.fiber_limit(forms, b.chis, 1.0, name, b.fibers()),
             lambda: pl.fiber_pullback_resolvent(forms, f, 0.0, name),
             lambda: pl.fiber_correctors(forms, b.chis, 1.0, name, b.fibers()),
             lambda: pl.theory_slope(name, "all", 0, 0.0)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(
                "regime must be one of stretch, bend, rod, not %r" % name)):
            call()


@pytest.mark.parametrize("name", ["chi4", "rod"])
def test_chain_functions_reject_unknown_regime(name, monkeypatch):
    # an unknown name, and a line regime's, fail with the table's names
    # before anything is factorised
    forms = _unfactorised_forms(monkeypatch)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    calls = [lambda: fiber.build_chain(forms, 0.3, 0.3 ** -2, name, f),
             lambda: pl.fiber_rate_study(forms, {"general_chi2": f, name: f}),
             lambda: fiber.FiberOps(forms, 0.3, name)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(
                "regime must be one of stretch, bend, general_chi2, general_chi4, not %r" % name)):
            call()


def intertwined_profile():
    """The paper's intertwined case: a stiff layer whose Voigt coupling of
    e33 with 2e13 breaks rod symmetry (smallest eigenvalue 3.88)."""
    C = make_isotropic(5.0, 5.0).voigt.copy()
    C[2, 4] = C[4, 2] = 3.0
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                            (0.0, 0.5, ElasticityTensor(C))])


def test_intertwined_case(forms):
    # on the intertwined material bend and stretch displacements mix and
    # only the rod regime applies
    mixed = fem.assemble(intertwined_profile(), forms.mesh)
    A = rod_tensor(mixed).A_rod
    assert np.max(np.abs(A[:2, 2:])) > 1e-3 * np.max(np.abs(A))   # 3.6e-3
    # K(chi) keeps the bend parity on the rod-symmetric cell only
    _, pairing = is_centrally_symmetric(forms.mesh.cross)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    v = fem.project_symmetry(f, "bend", forms.mesh, pairing)
    for fs, low in ((forms, True), (mixed, False)):
        w = fs.K(0.3) @ v
        leak = np.linalg.norm(fem.project_symmetry(w, "stretch", forms.mesh, pairing))
        assert (leak < 1e-12 * np.linalg.norm(w)) == low   # 0.198 on the mixed cell
    rep = pl.rate_experiment(pl.ExperimentConfig(regimes=("rod",), orders=(0, 1, 2)), mixed)
    for r in rep.rows:
        # component 3 at order 2 fits 1.373 < 1.4 on load seed 7 (1.46-1.70 on
        # seeds 0-6), the dip the rod-symmetric material shows on that seed too
        if (r["component"], r["order"]) != ("3", 2):
            assert r["passed"], (r["component"], r["order"], r["slope_fit"])
    fn = f / np.sqrt(mixed.norm_sq_l2(f))
    study = pl.fiber_rate_study(mixed, {"general_chi2": fn, "general_chi4": fn})
    assert len(study["slopes"]) == 6 and all(s["passed"] for s in study["slopes"])


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


# the expected exponents written out by hand, per (regime, component) at
# orders 0, 1, 2, and bend 3 at order 0 with momentum_variant "zero"
SLOPES_BY_HAND = {
    # gamma = -1: orders 1 of stretch and bend meet their second terms
    (-1.0, 0.0): ({("stretch", "all"): (0.5, 0.0, 1.0), ("rod", "12"): (0.25, 0.25, 0.5),
                   ("rod", "3"): (0.5, 0.5, 0.75), ("bend", "12"): (0.25, -0.5, 0.5),
                   ("bend", "3"): (0.5, -0.25, 0.75)}, 0.25),
    # delta = 1: bend loses (gamma+2)/4 - delta = -0.5 at every order
    (0.0, 1.0): ({("stretch", "all"): (1.0, 1.0, 2.0), ("rod", "12"): (0.5, 0.5, 1.0),
                  ("rod", "3"): (1.0, 1.0, 1.5), ("bend", "12"): (0.0, -0.5, 0.5),
                  ("bend", "3"): (0.5, 0.0, 1.0)}, 0.0),
}


@pytest.mark.parametrize("gamma, delta", SLOPES_BY_HAND)
def test_theory_slope_by_hand(gamma, delta):
    want, zero = SLOPES_BY_HAND[(gamma, delta)]
    assert set(want) == {(r, c) for r, line in pl.LINE_REGIMES.items() for c in line.components}
    for (regime, c), slopes in want.items():
        assert tuple(pl.theory_slope(regime, c, o, gamma, delta) for o in (0, 1, 2)) == slopes
    assert pl.theory_slope("bend", "3", 0, gamma, delta, "zero") == zero


def test_theory_slope_rejects_unreported_pair():
    # a component the regime does not report, or an order past 2, names the
    # regime's pairs instead of returning another row's exponent
    for regime, component, order in (("rod", "all", 0), ("stretch", "12", 2),
                                     ("bend", "3", 3)):
        with pytest.raises(ValueError, match=re.escape(
                "(component, order) of %s must be one of (" % regime)):
            pl.theory_slope(regime, component, order, 0.0)


# rows of the (gamma, delta) study below that miss their pass line, by
# (gamma, delta, seed); see CHANGES.md
GAMMA_DELTA_MISFITS = {
    # delta = 1 is the one point with a negative load prefactor: bend 3 at
    # order 2 fits 0.857 against 1.0, and its local slopes stay at 0.84-0.92
    # out to N = 64, so this is no coarse-grid dip
    (0.0, 1.0, 0): {("bend", "3", 2)},
    # the same bend row fits 0.831; rod 3 at order 2 fits 1.366 against 1.5,
    # the dip load family 7 shows at gamma = 0 whatever delta is
    (0.0, 1.0, 7): {("bend", "3", 2), ("rod", "3", 2)},
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("gamma, delta", [(-1.0, 0.0), (-0.5, 0.0), (1.0, 0.0), (2.0, 0.0),
                                          (2.0, 1.0), (0.0, 1.0)])
def test_rate_experiment_gamma_delta(forms, gamma, delta, seed):
    # the rate table's second terms (gamma = -1, -0.5) and its load
    # prefactor (delta = 1) against fitted slopes, away from gamma = delta =
    # 0, where the other rate studies run
    cfg = pl.ExperimentConfig(gamma=gamma, delta=delta, orders=(0, 1, 2), seed=seed)
    misfits = GAMMA_DELTA_MISFITS.get((gamma, delta, seed), set())
    for r in pl.rate_experiment(cfg, forms).rows:
        if (r["regime"], r["component"], r["order"]) not in misfits:
            assert r["passed"], (r["regime"], r["component"], r["order"], r["slope_fit"])


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


@pytest.mark.parametrize("variant", [
    {},
    {"regimes": ("bend",), "momentum_variant": "zero"},
    {"regimes": ("bend",), "s_inf": True},
], ids=["all_regimes", "bend_momentum_zero", "bend_s_inf"])
def test_rate_experiment_matches_line_picture_loop(forms, variant):
    # the Gelfand-picture study against the per-load loop in the line
    # picture: a transform round trip around every operator, the frequency
    # form of the leading approximant and two-column reference solves
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), orders=(0, 1, 2), n_loads=2, **variant)
    want = rate_errors_loop(cfg, forms)
    rows = pl.rate_experiment(cfg, forms).rows
    assert len(rows) == len(want)
    for r in rows:
        ref = np.array(want[(r["regime"], r["component"], r["order"])])
        assert np.max(np.abs(np.array(r["errs"]) - ref) / ref) <= 1e-10


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
        b = tr.gelfand(f)
        u1, _ = pl.fiber_correctors(forms, b.chis, eps ** -2.0, "stretch", b.fibers())
        errs.append(pl.line_error_norm(forms, b.like(u1)))
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


def test_line_resolvent_shares_conjugate_fibers(fresh_forms, factorisations):
    # fiber -chi is the conjugated solve of fiber |chi|: bitwise the
    # per-fiber factorisations, including the unpaired Nyquist fiber -pi
    forms = fresh_forms
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
        out[k] = solver.solve(b.fibers()[k]).reshape(b.n_y, -1)
    assert np.array_equal(got.values, tr.gelfand_inverse(b.like(out)).values)


def test_rate_experiment_factorises_once_per_eps(fresh_forms, factorisations):
    # one factorisation per |chi| the loads reach, |j| = 0 .. LOAD_BAND, at
    # each eps, shared by the regimes
    forms = fresh_forms
    cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), regimes=("stretch", "bend"),
                              n_loads=1)
    rep = pl.rate_experiment(cfg, forms)
    assert len(factorisations) == len(cfg.n_grid) * (pl.LOAD_BAND + 1)
    single = [pl.rate_experiment(dataclasses.replace(cfg, regimes=(r,)), forms)
              for r in cfg.regimes]
    assert rep.rows == single[0].rows + single[1].rows


@pytest.fixture()
def reference_solves(monkeypatch):
    """The shape of the right-hand side of every fem.ResolventSolver solve
    made while the test runs."""
    shapes = []
    solve = fem.ResolventSolver.solve

    def counted(self, load_field):
        shapes.append(np.shape(load_field))
        return solve(self, load_field)

    monkeypatch.setattr(fem.ResolventSolver, "solve", counted)
    return shapes


def test_rate_experiment_solves_reference_once_per_fiber(forms, reference_solves):
    # every regime's reference is a parity part of the family's: one solve
    # per |chi| the loads reach at each eps, whose columns are the family's
    # loads, and also their out-of-line scaling where bend takes one
    # (delta > 0 or s_inf) beside a regime that takes none, at chi = 0 once
    # and elsewhere at +chi and conjugated -chi
    for change, families in (
            ({}, 1), ({"delta": 0.5}, 2), ({"delta": 0.5, "regimes": ("stretch", "rod")}, 1),
            ({"delta": 0.5, "regimes": ("bend",)}, 1), ({"s_inf": True, "regimes": ("bend",)}, 1)):
        reference_solves.clear()
        cfg = pl.ExperimentConfig(n_grid=(8, 12, 16, 24), n_loads=2, **change)
        pl.rate_experiment(cfg, forms)
        cols = families * cfg.n_loads
        per_eps = [cols] + [2 * cols] * pl.LOAD_BAND
        assert reference_solves == [(forms.mesh.n_dof, n) for n in per_eps] * len(cfg.n_grid)


@pytest.fixture(scope="module")
def fiber_loads(forms):
    """One load per regime of the fiber-rate study, parity-projected for
    stretch and bend."""
    _, pairing = is_centrally_symmetric(forms.mesh.cross)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    return {"stretch": fem.project_symmetry(f, "stretch", forms.mesh, pairing),
            "bend": fem.project_symmetry(f, "bend", forms.mesh, pairing),
            "general_chi2": f, "general_chi4": f}


def test_fiber_rate_study_shares_couplings(fresh_forms, fiber_loads, factorisations):
    # bend shares chi^-4 with general_chi4, stretch chi^-2 with general_chi2;
    # rows stay regime-major, as the single-regime studies concatenated
    forms, loads = fresh_forms, fiber_loads
    chi_grid = (0.4, 0.2)
    study = pl.fiber_rate_study(forms, loads, chi_grid)
    assert len(factorisations) == 2 * len(chi_grid)
    single = [pl.fiber_rate_study(forms, {r: g}, chi_grid) for r, g in loads.items()]
    assert study["rows"] == [row for s in single for row in s["rows"]]
    assert study["slopes"] == [row for s in single for row in s["slopes"]]


def test_spectrum_and_chi4_study_share_one_factorisation_per_chi(fresh_forms, fiber_loads,
                                                                 factorisations):
    # the eigensolve at chi shift-inverts on the resolvent of t = chi^-4,
    # which the bend and general_chi4 study then solves with; the study's
    # rows are those of the same study on forms with no cached LU
    loads = {r: fiber_loads[r] for r in ("bend", "general_chi4")}
    chi_grid = (0.4, 0.2, 0.1)
    fiber.spectrum_scaling(fresh_forms, chi_grid, k=5)
    study = pl.fiber_rate_study(fresh_forms, loads, chi_grid)
    assert factorisations == [fresh_forms.mesh.n_dof] * len(chi_grid)
    assert study == pl.fiber_rate_study(set_up_forms(), loads, chi_grid)


def test_fiber_rate_study_matches_serial_loop(fiber_loads):
    # the study, whose chi run two at a time on pool threads, gives the oracle
    # loop's rows and slopes bitwise; each runs on forms of its own, so the
    # oracle factorises every LU itself, on this thread
    chi_grid = (0.4, 0.2, 0.1)
    study = pl.fiber_rate_study(set_up_forms(), fiber_loads, chi_grid)
    oracle = fiber_rate_study_loop(set_up_forms(), fiber_loads, chi_grid)
    assert study["rows"] == oracle["rows"]
    assert study["slopes"] == oracle["slopes"]


def _sweeps(loads):
    return {"spectrum_scaling": lambda forms, chi_grid: fiber.spectrum_scaling(
                forms, chi_grid, k=5),
            "fiber_rate_study": lambda forms, chi_grid: pl.fiber_rate_study(
                forms, {r: loads[r] for r in ("bend", "general_chi4")}, chi_grid)}


def _mixed_forms():
    return fem.assemble(intertwined_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 4))


def _under_fast_switching(forms, sweep, monkeypatch):
    """sweep(forms) with the interpreter switching threads every
    microsecond, and the size and thread of each factorisation it made."""
    made = []
    factorize = fem.factorize

    def counted(A, order):
        made.append((A.shape[0], threading.current_thread()))
        return factorize(A, order)

    monkeypatch.setattr(fem, "factorize", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = sweep(forms)
    finally:
        sys.setswitchinterval(interval)
    return out, made


def _split_forms():
    return fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 4))


def test_sweep_under_fast_thread_switching_factorises_each_key_once(monkeypatch):
    # forms with no dof order, parity basis or quotient LU yet, without and
    # with the mirror split: the sweep builds them, and the class blocks of
    # K_sx, K_xx and M, on the calling thread, then factorises each chi's
    # resolvents there while pool threads run the chains of the chi before.
    # With the interpreter switching threads every microsecond, each
    # operator's blocks are built once and each (chi, power) factorised
    # once, all on the calling thread, and the rows are bitwise those of the
    # oracle loop on forms of its own
    blocks = []
    block_diagonal = fem.ParityBasis.block_diagonal

    def counted(self, A, name):
        blocks.append((name, threading.current_thread()))
        return block_diagonal(self, A, name)

    monkeypatch.setattr(fem.ParityBasis, "block_diagonal", counted)
    chi_grid = (0.4, 0.3, 0.2, 0.1)
    for make_forms, built in ((_mixed_forms, []), (_split_forms, ["K_ss", "K_sx", "K_xx", "M"])):
        forms = make_forms()
        rng = np.random.default_rng(2)
        f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
        loads = {"general_chi2": f, "general_chi4": f}
        del blocks[:]
        with monkeypatch.context() as m:
            study, made = _under_fast_switching(
                forms, lambda forms: pl.fiber_rate_study(forms, loads, chi_grid), m)
        assert [name for name, _ in blocks] == built
        resolvents = [n for n, _ in made if n == forms.mesh.n_dof]
        assert len(resolvents) == 2 * len(chi_grid) == len(forms._resolvents)
        assert len(made) == len(resolvents) + 1   # and the quotient LU
        assert {thread for _, thread in made + blocks} == {threading.current_thread()}
        oracle = fiber_rate_study_loop(make_forms(), loads, chi_grid)
        assert study["rows"] == oracle["rows"] and study["slopes"] == oracle["slopes"]


def test_spectrum_scaling_under_fast_thread_switching_factorises_each_key_once(monkeypatch):
    # the same for the eigensolves, which run on the pool threads: each
    # chi's LU factorised once, every LU on the calling thread, and the
    # eigenvalues bitwise those of the oracle loop
    forms = _mixed_forms()
    chi_grid = [0.4, 0.3, 0.2, 0.1]
    rows, made = _under_fast_switching(
        forms, lambda forms: fiber.spectrum_scaling(forms, chi_grid, k=5), monkeypatch)
    resolvents = [n for n, _ in made if n == forms.mesh.n_dof]
    assert len(resolvents) == len(chi_grid) == len(forms._resolvents)
    assert len(made) == len(resolvents) + 1   # and the quotient LU
    assert {thread for _, thread in made} == {threading.current_thread()}
    assert np.array_equal([r["eigs"] for r in rows],
                          spectrum_scaling_loop(_mixed_forms(), chi_grid))


@pytest.mark.parametrize("sweep", ["spectrum_scaling", "fiber_rate_study"])
def test_sweep_raises_a_worker_factorisation_error_and_leaves_no_thread(
        fresh_forms, fiber_loads, monkeypatch, sweep):
    # the second chi's LU fails, on the calling thread, while the first
    # chi's task runs on the pool: the caller gets the SingularSystem, no
    # third LU is made, and the pool is gone when the call returns
    factorize, calls = fem.factorize, []

    def second_fails(A, order):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise fem.SingularSystem("second chi")
        return factorize(A, order)

    monkeypatch.setattr(fem, "factorize", second_fails)
    threads = threading.active_count()
    with pytest.raises(fem.SingularSystem, match="^second chi$"):
        _sweeps(fiber_loads)[sweep](fresh_forms, (0.4, 0.2, 0.1))
    assert threading.active_count() == threads
    assert calls == [threading.current_thread()] * 2


@pytest.mark.parametrize("sweep", ["spectrum_scaling", "fiber_rate_study"])
def test_sweep_leaves_no_thread_when_the_caller_fails(fresh_forms, fiber_loads, monkeypatch,
                                                      sweep):
    # an error of the per-chi work after the factorisation (the eigensolve,
    # the chain) reaches the caller with the pool joined, even while the
    # caller holds the traceback (and so the sweep's frame); the forms keep
    # the LUs factorised, in grid order, before the error was seen
    def fails(*args, **kwargs):
        raise fem.NoConvergence("first chi")

    monkeypatch.setattr(fem, "smallest_eigs", fails)
    monkeypatch.setattr(fiber, "build_chain", fails)
    threads = threading.active_count()
    chi_grid = (0.4, 0.2, 0.1)
    with pytest.raises(fem.NoConvergence, match="^first chi$") as info:
        _sweeps(fiber_loads)[sweep](fresh_forms, chi_grid)
    assert info.tb is not None and threading.active_count() == threads
    keys = list(fresh_forms._resolvents)
    assert keys and keys == [(chi, chi ** -4) for chi in chi_grid][:len(keys)]


def test_fiber_rate_study_solves_once_per_power(forms, fiber_loads, reference_solves):
    # at each chi one reference solve per coupling power, whose columns are
    # the scaled loads of its two regimes
    chi_grid = (0.4, 0.2)
    pl.fiber_rate_study(forms, fiber_loads, chi_grid)
    assert reference_solves == [(forms.mesh.n_dof, 2)] * (2 * len(chi_grid))


@pytest.mark.parametrize("chi_grid", [[0.2, 0.2, 0.2], [0.4, 0.2, 0.0], [0.4, -0.2, 0.1]],
                         ids=["repeated", "zero", "negative"])
def test_fiber_rate_study_checks_chi_grid_first(forms, fiber_loads, monkeypatch, chi_grid):
    # a grid without two distinct chi fits no slope, and chi <= 0 has no
    # coupling chi^-p: both are rejected before any factorisation
    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised before the chi_grid check")

    monkeypatch.setattr(fem, "factorize", no_factorisation)
    want = "^chi_grid must be a list of positive numbers, at least 2 of them distinct, not "
    with pytest.raises(ValueError, match=want):
        pl.fiber_rate_study(forms, fiber_loads, chi_grid)
