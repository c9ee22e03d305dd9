import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rodhom import fem, fiber, homogenize as hz, transform as tr
from rodhom.geometry import ProductMesh, build_rectangle, compute_moments, is_centrally_symmetric
from rodhom.material import MaterialProfile, make_isotropic

from support_contour import ContourTooClose, _contour, contour_quadrature_check
from support_embedding import (C_bend, C_rod_chi, const_hat, cross_embedding_columns, nodal_field,
                               s_rod, w_bend)
from support_sweep import spectrum_scaling_loop

CHI_SWEEP = [0.4, 0.283, 0.2, 0.141, 0.1, 0.0707, 0.05]


def layered_profile(contrast=5.0):
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                            (0.0, 0.5, make_isotropic(contrast, contrast))])


def h1_norm_sq(forms, u):
    """The squared H1 norm of a fiber on the product domain: its H1 parts
    summed over the displacement components."""
    return float(np.sum(forms.norm_sq_parts(u, True)[1]))


@pytest.fixture(scope="module")
def setup():
    mesh = ProductMesh(build_rectangle(1.0, 4, 4), 8)
    forms = fem.assemble(layered_profile(), mesh)
    _, pairing = is_centrally_symmetric(mesh.cross)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(mesh.n_dof) + 1j * rng.standard_normal(mesh.n_dof)
    fs = fem.project_symmetry(f, "stretch", mesh, pairing)
    fs /= np.sqrt(forms.norm_sq_l2(fs))
    fb = fem.project_symmetry(f, "bend", mesh, pairing)
    fb /= np.sqrt(forms.norm_sq_l2(fb))
    fn = f / np.sqrt(forms.norm_sq_l2(f))
    return forms, fs, fb, fn


def test_momentum_examples(setup):
    forms, *_ = setup
    stretch, bend = fiber.FiberOps(forms, 0.1, "stretch"), fiber.FiberOps(forms, 0.1, "bend")
    md = compute_moments(forms.mesh.cross)
    x1, x2, _ = forms.mesh.node_coords().T
    zero, one = np.zeros_like(x1), np.ones_like(x1)
    mom = stretch.momentum(nodal_field(x2, -x1, one))
    assert np.allclose(mom, [md.c1 + md.c2, 1.0], atol=1e-12)

    e1 = nodal_field(one, zero, zero)
    assert np.allclose(bend.momentum(e1), [1.0, 0.0], atol=1e-12)

    f3 = nodal_field(zero, zero, x1)
    assert np.allclose(bend.momentum(f3), [0.1j * md.c1, 0.0], atol=1e-12)


def test_embed_momentum_adjoint(setup):
    forms, *_ = setup
    rng = np.random.default_rng(1)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    for which, nd in [("stretch", 2), ("bend", 2), ("general_chi2", 4)]:
        ops = fiber.FiberOps(forms, 0.3, which)
        d = rng.standard_normal(nd) + 1j * rng.standard_normal(nd)
        lhs = np.vdot(f, forms.M @ (ops.E @ d))
        rhs = np.vdot(ops.momentum(f), d)
        assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1)


def test_gram_matches_analytic(setup):
    forms, *_ = setup
    md = compute_moments(forms.mesh.cross)
    for chi in [0.3, 0.05]:
        for regime, C in (("general_chi2", C_rod_chi(md, chi)), ("bend", C_bend(md, chi)),
                          ("stretch", md.C_stretch)):
            assert np.max(np.abs(fiber.FiberOps(forms, chi, regime).C - C)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0),
       st.lists(st.complex_numbers(max_magnitude=10.0), min_size=4, max_size=4))
def test_embedding_properties(setup, chi, m):
    # E m is the nodal field of (E0 + chi E1) m, momentum is its M-adjoint,
    # and the Gram matrix is the analytic one
    forms, *_, f = setup
    x1, x2 = forms.mesh.node_coords()[:, 0], forms.mesh.node_coords()[:, 1]
    ops = fiber.FiberOps(forms, chi, "general_chi2")
    u = ops.E @ m
    want = const_hat(x1, m[0], m[1]) + s_rod(x1, x2, chi, m)
    assert np.max(np.abs(u - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    lhs = np.vdot(f, forms.M @ u)
    rhs = np.vdot(ops.momentum(f), m)
    assert abs(lhs - rhs) <= 1e-12 * max(np.sqrt(forms.norm_sq_l2(u)), 1.0)
    C = C_rod_chi(compute_moments(forms.mesh.cross), chi)
    assert np.max(np.abs(ops.C - C)) <= 1e-12 * np.max(np.abs(C))


def test_chain_blocks_match_nodal_fields(setup):
    # the column blocks the chains use against their node-by-node fields
    forms = setup[0]
    x1, x2 = forms.mesh.node_coords()[:, 0], forms.mesh.node_coords()[:, 1]
    rng = np.random.default_rng(5)
    for chi in (0.4, -0.3):
        ops = fiber.FiberOps(forms, chi, "general_chi4")
        m = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for got, want in ((ops.S[:, :2] @ m[:2], w_bend(x1, x2, chi, m)),
                          (ops.S @ m, s_rod(x1, x2, chi, m)),
                          (forms.E0[:, :2] @ m[:2], const_hat(x1, m[0], m[1]))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        E0, E1 = fem.embedding_blocks(forms.mesh.cross)
        for key, s in (("bend", slice(0, 2)), ("stretch", slice(2, 4)), ("rod", slice(0, 4))):
            for variant, got in (("eps", (E0 + chi * E1)[:, s]), ("zero", E0[:, s])):
                want = cross_embedding_columns(forms.mesh.cross, chi, key, variant)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_reference_apriori_bounded(setup):
    forms, fs, *_ = setup
    ratios = []
    for chi in CHI_SWEEP:
        u = fem.ResolventSolver(forms, chi, chi ** -2).solve(fs)
        ratios.append(np.sqrt(h1_norm_sq(forms, u)))
    assert max(ratios) < 10.0
    assert max(ratios) < 3.0 * min(ratios)


def test_rayleigh_bounds_scalings(setup):
    forms, *_ = setup
    cb, cs = [], []
    for chi in CHI_SWEEP:
        rep = fiber.rayleigh_bounds(forms, chi)
        cb.append(rep["bend_quotient"] / chi ** 4)
        cs.append(rep["stretch_quotient"] / chi ** 2)
    assert max(cb) < 3.0 * min(cb)
    assert max(cs) < 3.0 * min(cs)


def test_spectrum_homogeneous_limit():
    # first pair scaled by chi^-4 approaches the effective bending stiffness
    mesh = ProductMesh(build_rectangle(1.0, 8, 8), 2)
    forms = fem.assemble(MaterialProfile.constant(make_isotropic(1.0, 1.0)), mesh)
    rt = hz.rod_tensor(forms)
    rows = fiber.spectrum_scaling(forms, [0.05], k=5)
    ratio = rows[0]["ratio_bend"]
    target = np.linalg.eigvalsh(rt.A_bend)
    assert np.max(np.abs(ratio - target) / target) < 0.15


def test_spectrum_scaling_matches_serial_loop():
    # the sweep, whose chi run two at a time on pool threads, gives the oracle
    # loop's eigenvalues bitwise, in grid order; each runs on forms of its
    # own, so the oracle factorises every LU itself, on this thread
    def fresh():
        return fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 4, 4), 8))

    chi_grid = [0.4, 0.2, 0.1]
    rows = fiber.spectrum_scaling(fresh(), chi_grid, k=5)
    assert [r["chi"] for r in rows] == chi_grid
    assert np.array_equal([r["eigs"] for r in rows], spectrum_scaling_loop(fresh(), chi_grid))


@pytest.mark.parametrize("chi_grid", [[0.0, 0.2], [0.4, -0.2], [], 0.2],
                         ids=["zero", "negative", "empty", "scalar"])
def test_spectrum_scaling_checks_chi_grid_first(setup, monkeypatch, chi_grid):
    # the ratios divide by chi^4 and chi^2: a chi <= 0 is rejected before any
    # factorisation, not returned as infinite ratios
    forms, *_ = setup

    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised before the chi_grid check")

    monkeypatch.setattr(fem, "factorize", no_factorisation)
    with pytest.raises(ValueError, match="^chi_grid must be a nonempty list of positive numbers"):
        fiber.spectrum_scaling(forms, chi_grid)


@pytest.mark.parametrize("k", [4, 2, 0, 5.0, True, None],
                         ids=["4", "2", "0", "float", "bool", "none"])
def test_spectrum_scaling_checks_k_first(setup, monkeypatch, k):
    # the rows hold two pairs of ratios and lambda5: fewer than five
    # eigenvalues are rejected before any factorisation, not returned as
    # short rows
    forms, *_ = setup

    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised before the k check")

    monkeypatch.setattr(fem, "factorize", no_factorisation)
    with pytest.raises(ValueError, match="^k must be an integer >= 5"):
        fiber.spectrum_scaling(forms, [0.2], k=k)


@pytest.mark.parametrize("chi", [0.0, -0.0, np.nan, np.inf])
def test_build_chain_rejects_zero_or_nonfinite_chi(setup, chi, monkeypatch):
    # the chains divide by chi (S_|chi| and the chi-scaled coefficients), so
    # every regime rejects chi = 0, and a chi that is not finite, before the
    # quotient solver is reached
    forms, fs, *_ = setup

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the chi check")

    monkeypatch.setattr(fem.QuotientSolver, "solve", no_solve)
    for regime in fiber.CHAIN_REGIMES:
        with pytest.raises(ValueError, match="^chi must be a finite nonzero number, not "):
            fiber.build_chain(forms, chi, 1.0, regime, fs)


def test_chain_zero_load(setup):
    forms, *_ = setup
    z = np.zeros(forms.mesh.n_dof, dtype=complex)
    for regime in ("stretch", "bend", "general_chi2", "general_chi4"):
        ch = fiber.build_chain(forms, 0.2, 0.2 ** -2, regime, z)
        assert np.linalg.norm(sum(ch.terms.values())) == 0


def test_chain_m_bounded(setup):
    forms, fs, *_ = setup
    norms = [np.linalg.norm(fiber.build_chain(forms, chi, chi ** -2, "stretch", fs).m["m"])
             for chi in CHI_SWEEP]
    assert max(norms) < 3.0 * min(norms)


def test_chain_constraints_and_residuals(setup):
    forms, fs, fb, fn = setup
    for regime, f in [("stretch", fs), ("bend", fb),
                      ("general_chi2", fn), ("general_chi4", fn)]:
        chi = 0.2
        t = chi ** (-4 if regime in ("bend", "general_chi4") else -2)
        ch = fiber.build_chain(forms, chi, t, regime, f)
        # every corrector right-hand side annihilates the rigid motions
        assert max(r for _, r in ch.residuals) < 1e-10
        # every corrector field satisfies the mean / rotation constraints
        for name, u in ch.terms.items():
            if name.startswith(("u2", "u3")):
                assert np.max(np.abs(forms.kernel_fields @ (forms.M @ u))) < 1e-10


@pytest.mark.parametrize("depth", ["full", "correctors"])
@pytest.mark.parametrize("regime", list(fiber.CHAIN_REGIMES))
def test_stacked_chain_matches_per_load_chains(setup, regime, depth):
    # a stack of loads runs as the columns of one block: row i of every term
    # and coefficient vector is load i's own chain. The kernel residuals are
    # rounding of an exact identity, so they agree at the scale of the loads
    forms = setup[0]
    spec = fiber.CHAIN_REGIMES[regime]
    rng = np.random.default_rng(21)
    F = rng.standard_normal((3, forms.mesh.n_dof)) + 1j * rng.standard_normal((3, forms.mesh.n_dof))
    if spec.parity:
        pairing = is_centrally_symmetric(forms.mesh.cross)[1]
        F = np.stack([fem.project_symmetry(f, spec.parity, forms.mesh, pairing) for f in F])

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    for chi in (0.4, 0.1, -0.3):
        t = abs(chi) ** -spec.power
        block = fiber.build_chain(forms, chi, t, regime, F, depth=depth)
        singles = [fiber.build_chain(forms, chi, t, regime, f, depth=depth) for f in F]
        for got, want in ((block.terms, [ch.terms for ch in singles]),
                          (block.m, [ch.m for ch in singles])):
            assert got.keys() == want[0].keys()
            for name, X in got.items():
                assert X.shape == (len(F),) + want[0][name].shape
                assert all(close(x, w[name]) for x, w in zip(X, want))
        assert [n for n, _ in block.residuals] == [n for n, _ in singles[0].residuals]
        for i, (_, r) in enumerate(block.residuals):
            worst = max(ch.residuals[i][1] for ch in singles)
            assert abs(r - worst) <= 1e-12 * np.linalg.norm(F)
        # chain(-chi, f) = conj(chain(chi, conj f))
        mirror = fiber.build_chain(forms, -chi, t, regime, F.conj(), depth=depth)
        for got, want in ((block.terms, mirror.terms), (block.m, mirror.m)):
            assert all(close(X, want[name].conj()) for name, X in got.items())


def test_chain_norm_ladders(setup):
    forms, fs, fb, _ = setup
    r_stretch, r_u1, r_u3 = [], [], []
    for chi in CHI_SWEEP:
        ch = fiber.build_chain(forms, chi, chi ** -2, "stretch", fs)
        r_stretch.append(np.sqrt(h1_norm_sq(forms, ch.terms["u1"])) / chi)
        chb = fiber.build_chain(forms, chi, chi ** -4, "bend", fb)
        r_u1.append(np.sqrt(h1_norm_sq(forms, chb.terms["u1"])) / chi ** 2)
        r_u3.append(np.sqrt(h1_norm_sq(forms, chb.terms["u3"])) / chi)
    for r in (r_stretch, r_u1):
        assert max(r) < 3.0 * min(r)
    assert max(r_u3) < 1.0  # bounded; decays even faster here


def test_lemma_momentum_pinning(setup):
    forms, _, _, fn = setup
    fhat = forms.kernel_fields[:2] @ (forms.M @ fn)   # int f1, int f2
    ratios = []
    for chi in CHI_SWEEP:
        ch = fiber.build_chain(forms, chi, chi ** -2, "general_chi2", fn)
        ratios.append(np.linalg.norm(ch.m["m"][:2] - fhat) / chi)
    assert max(ratios) < 3.0 * min(ratios)


def test_general_restricts_to_stretch(setup):
    forms, fs, *_ = setup
    for chi in [0.3, 0.1]:
        chg = fiber.build_chain(forms, chi, chi ** -2, "general_chi2", fs)
        chs = fiber.build_chain(forms, chi, chi ** -2, "stretch", fs)
        d = np.sqrt(forms.norm_sq_l2(chg.order0() - chs.order0()))
        assert d < 1e-8
        # bend coefficients of the general chain vanish
        assert np.max(np.abs(chg.m["m"][:2])) < 1e-12


def test_bend_s_inf_variant(setup):
    forms, _, fb, _ = setup
    # pure out-of-line load: with the third component dropped the chain is
    # trivial, and the unscaled leading term is itself O(chi)
    nodes = forms.mesh.n_nodes
    v = fb.reshape(nodes, 3).copy()
    v[:, :2] = 0.0
    f3 = v.reshape(-1)
    for chi in [0.3, 0.1]:
        ch_inf = fiber.build_chain(forms, chi, chi ** -4, "bend", f3, scaling="s_inf")
        ch_raw = fiber.build_chain(forms, chi, chi ** -4, "bend", f3, scaling="none")
        assert np.linalg.norm(sum(ch_inf.terms.values())) == 0
        d = np.sqrt(forms.norm_sq_l2(ch_raw.order0() - ch_inf.order0()))
        assert d < 2.0 * chi * np.sqrt(forms.norm_sq_l2(f3))


def test_chain_rates(setup):
    forms, fs, fb, fn = setup
    thresholds = {
        ("stretch", "all", 0): 0.9, ("stretch", "all", 1): 1.8,
        ("bend", "12", 0): 0.9, ("bend", "3", 0): 1.8,
        ("bend", "12", 1): 1.8, ("bend", "3", 1): 2.6,
        ("general_chi2", "all", 0): 0.9, ("general_chi2", "all", 1): 1.8,
        ("general_chi4", "12", 0): 0.9, ("general_chi4", "3", 0): 1.8,
        ("general_chi4", "12", 1): 1.8, ("general_chi4", "3", 1): 2.6,
    }
    loads = {"stretch": fs, "bend": fb, "general_chi2": fn, "general_chi4": fn}
    errs = {k: [] for k in thresholds}
    for regime in ("stretch", "bend", "general_chi2", "general_chi4"):
        comp = regime in ("bend", "general_chi4")
        pw = -4 if comp else -2
        for chi in CHI_SWEEP:
            ch = fiber.build_chain(forms, chi, chi ** pw, regime, loads[regime])
            ref = fem.ResolventSolver(forms, chi, chi ** pw).solve(fiber.apply_load_scaling(
                loads[regime], "s_abs_chi" if comp else "none", chi))
            for row in fiber.error_report(forms, ch, ref):
                errs[(regime, row["component"], row["order"])].append(row["err_h1"])
    for key, floor in thresholds.items():
        slope = fiber.fit_slope(CHI_SWEEP, errs[key])
        assert slope >= floor, (key, slope)


def test_third_refinement_closes(setup):
    forms, _, _, fn = setup
    chi = 0.2
    ch = fiber.build_chain(forms, chi, chi ** -4, "general_chi4", fn)
    assert "m3" in ch.m and np.linalg.norm(ch.m["m3"]) > 0
    names = [n for n, _ in ch.residuals]
    assert "u2_3" in names
    assert dict(ch.residuals)["u2_3"] < 1e-10


def test_third_refinement_determined_by_load(setup):
    # the rigid-motion condition of the third refinement leaves the bend
    # slots of m3 free; a last-bit change of the load must not move m3
    forms, _, _, fn = setup
    for chi in (0.4, 0.2, 0.1, 0.05):
        a = fiber.build_chain(forms, chi, chi ** -4, "general_chi4", fn)
        b = fiber.build_chain(forms, chi, chi ** -4, "general_chi4", fn * (1 + 1e-15))
        m3 = a.m["m3"]
        assert np.linalg.norm(b.m["m3"] - m3) <= 1e-12 * np.linalg.norm(m3)
        for ch in (a, b):
            assert dict(ch.residuals)["u2_3"] < 1e-10


def test_contour_checks(setup):
    forms, fs, fb, _ = setup
    for chi in [0.4, 0.2, 0.1]:
        out = contour_quadrature_check(forms, chi, 0.125, 0.0, fs, regime="stretch")
        assert out["leading"] < 1e-6
        assert out["corrector"] < 1e-6
        assert out["refined"] < 1e-5
        assert out["leading_quadrature"] < 1e-6
        assert out["refined_quadrature"] < 1e-5
        outb = contour_quadrature_check(forms, chi, 0.125, 0.0, fb, regime="bend")
        assert outb["leading"] < 1e-6


def test_contour_too_close():
    with pytest.raises(ContourTooClose):
        _contour([1e-8, 2.0])


def test_load_scaling_tags():
    # every tag on a 2-node product vector and on the values of a LineField
    # (4 slabs of it); only the third components change, and the input is
    # left as it was
    f = np.arange(6, dtype=float)
    lf = tr.LineField(np.tile(f, (4, 1)), 0.5, 2)
    third = {"none": [2.0, 5.0], "s_abs_chi": [4.0, 10.0],
             "s_eps_delta": [8.0, 20.0], "s_inf": [0.0, 0.0]}
    for values in (f, lf.values):
        before = values.copy()
        for tag, want in third.items():
            out = fiber.apply_load_scaling(values, tag, chi=0.5, eps=lf.eps, delta=2.0)
            assert out.shape == values.shape and out.dtype == complex
            v = out.reshape(-1, 2, 3)
            assert np.array_equal(v[..., :2], before.reshape(-1, 2, 3)[..., :2])
            assert np.array_equal(v[..., 2], np.broadcast_to(want, v.shape[:-1]))
        out = fiber.apply_load_scaling(values, "s_eps_delta", eps=lf.eps, delta=0.0)
        assert np.array_equal(out, before)
        assert np.array_equal(values, before)
        with pytest.raises(ValueError):
            fiber.apply_load_scaling(values, "bogus", chi=0.5)


def test_embed_matrix_tiles_cross_embedding(setup):
    forms = setup[0]
    keys = {"bend": "bend", "stretch": "stretch", "general_chi2": "rod", "general_chi4": "rod"}
    for chi in (0.0, 0.3, -2.1):
        for regime, key in keys.items():
            E = np.tile(cross_embedding_columns(forms.mesh.cross, chi, key), (forms.mesh.n_y, 1))
            got = fiber.FiberOps(forms, chi, regime).E
            assert np.max(np.abs(got - E)) <= 1e-15 * np.max(np.abs(E))


def test_fiber_ops_blocks_are_slot_blocks(setup):
    # the operator set of a regime holds the four-slot blocks on its slots,
    # equal to the last bit
    forms = setup[0]
    slots = {"stretch": slice(2, 4), "bend": slice(0, 2),
             "general_chi2": slice(0, 4), "general_chi4": slice(0, 4)}
    for chi in (0.3, -0.05):
        full = fiber.FiberOps(forms, chi, "general_chi4")
        for regime, s in slots.items():
            ops = fiber.FiberOps(forms, chi, regime)
            for name in ("E", "S", "T", "B1", "lam"):
                assert np.array_equal(getattr(ops, name), getattr(full, name)[:, s]), name
            for name in ("A", "C"):
                assert np.array_equal(getattr(ops, name), getattr(full, name)[s, s]), name
