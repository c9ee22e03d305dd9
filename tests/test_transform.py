import numpy as np
import pytest

from rodhom import fem, fiber, transform as tr
from rodhom.geometry import ProductMesh, build_rectangle, compute_moments, cross_mass
from rodhom.material import MaterialProfile, make_isotropic

import support_transform as st

N, NY, EPS = 16, 8, 0.25


@pytest.fixture(scope="module")
def cross():
    return build_rectangle(1.0, 4, 4)


@pytest.fixture(scope="module")
def lf(cross):
    # band-limited random field: a few line modes j = k + N*l with |l| <= 2
    rng = np.random.default_rng(3)
    d = 3 * cross.n_nodes
    S = N * NY
    p = np.arange(S) // NY
    y = -0.5 + (np.arange(S) % NY) / NY
    vals = np.zeros((S, d), dtype=complex)
    for k, l in [(0, 0), (1, 0), (-2, 1), (5, -2), (-7, 2), (3, 1)]:
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vals += np.outer(np.exp(2j * np.pi * (k + N * l) * (p + y) / N), c)
    return tr.LineField(vals, EPS, NY)


def test_parseval_and_roundtrip(lf, cross):
    Mw = cross_mass(cross)
    b = tr.gelfand(lf)
    assert abs(tr.line_norm_sq(lf, Mw) - st.bundle_norm_sq(b, Mw)) \
        < 1e-12 * tr.line_norm_sq(lf, Mw)
    back = tr.gelfand_inverse(b)
    assert np.max(np.abs(back.values - lf.values)) < 1e-12 * np.max(np.abs(lf.values))
    bf = st.floquet(lf)
    assert abs(tr.line_norm_sq(lf, Mw) - st.bundle_norm_sq(bf, Mw)) \
        < 1e-12 * tr.line_norm_sq(lf, Mw)
    back = st.floquet_inverse(bf)
    assert np.max(np.abs(back.values - lf.values)) < 1e-12 * np.max(np.abs(lf.values))


def test_single_fiber_support(cross):
    d = 3 * cross.n_nodes
    S = N * NY
    p = np.arange(S) // NY
    y = -0.5 + (np.arange(S) % NY) / NY
    k0 = 3
    vals = np.outer(np.exp(2j * np.pi * k0 * (p + y) / N), np.ones(d))
    b = tr.gelfand(tr.LineField(vals, EPS, NY))
    mags = np.linalg.norm(b.values.reshape(N, -1), axis=1)
    assert mags[k0] > 0
    others = np.delete(mags, k0)
    assert np.max(others) < 1e-12 * mags[k0]


def test_conjugation_symmetry(cross):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((N * NY, 3 * cross.n_nodes))
    f = tr.LineField(vals, EPS, NY)
    b = st.floquet(f)
    for k in range(1, N):
        assert np.max(np.abs(b.values[-k % N] - np.conj(b.values[k]))) < 1e-12
    # gelfand picture: same up to index folding; the chi = -pi fiber maps to
    # itself with the folding phase e^{2 pi i y}
    g = tr.gelfand(f)
    for k in range(1, N):
        if k == N // 2:
            continue
        assert np.max(np.abs(g.values[-k % N] - np.conj(g.values[k]))) < 1e-12
    phase = np.exp(2j * np.pi * g.y_nodes())[None, :, None]
    assert np.max(np.abs(g.values[N // 2] - (np.conj(g.values[N // 2]) * phase)[0])) < 1e-12


def test_floquet_relation(lf):
    bg = tr.gelfand(lf)
    bf = st.floquet(lf)
    assert np.max(np.abs(st.to_floquet(bg).values - bf.values)) \
        < 1e-12 * np.max(np.abs(bf.values))


def test_alignment_error(cross):
    with pytest.raises(tr.AlignmentError):
        tr.LineField(np.zeros((N * NY + 1, 3 * cross.n_nodes)), EPS, NY)


def test_derivative_check(lf):
    scale = np.max(np.abs(lf.values)) / EPS
    assert st.gelfand_derivative_check(lf) < 1e-10 * scale
    const = lf.like(np.ones_like(lf.values))
    assert st.gelfand_derivative_check(const) < 1e-12


def test_xi_idempotent_and_equivalent(lf, cross):
    Mw = cross_mass(cross)
    xa = tr.xi_smoothing(lf)
    xb = st.fiber_mean(lf)
    scale = np.max(np.abs(lf.values))
    assert np.max(np.abs(xa.values - xb.values)) < 1e-10 * scale
    xaa = tr.xi_smoothing(xa)
    assert np.max(np.abs(xaa.values - xa.values)) < 1e-12 * scale
    assert tr.line_norm_sq(xa, Mw) <= tr.line_norm_sq(lf, Mw) * (1 + 1e-12)


def test_xi_selfadjoint(cross):
    Mw = cross_mass(cross)
    rng = np.random.default_rng(5)
    shape = (N * NY, 3 * cross.n_nodes)
    f = tr.LineField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), EPS, NY)
    g = tr.LineField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), EPS, NY)

    def inner(a, b):
        va = a.values.reshape(a.S, -1, 3)
        vb = b.values.reshape(b.S, -1, 3)
        return (EPS / NY) * np.einsum("sic,ij,sjc->", va.conj(), Mw, vb)

    lhs = inner(tr.xi_smoothing(f), g)
    rhs = inner(f, tr.xi_smoothing(g))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_xi_fixes_low_band(cross):
    d = 3 * cross.n_nodes
    S = N * NY
    p = np.arange(S) // NY
    y = -0.5 + (np.arange(S) % NY) / NY
    vals = np.outer(np.exp(2j * np.pi * 2 * (p + y) / N), np.ones(d))
    f = tr.LineField(vals, EPS, NY)
    out = tr.xi_smoothing(f)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_momentum_stretch_example(cross):
    md = compute_moments(cross)
    S = N * NY
    x1, x2 = cross.nodes[:, 0], cross.nodes[:, 1]
    g = np.cos(2 * np.pi * np.arange(S) / S)
    vals = np.zeros((S, 3 * cross.n_nodes), dtype=complex)
    vals[:, 0::3] = x2
    vals[:, 1::3] = -x1
    vals[:, 2::3] = g[:, None]
    f = tr.LineField(vals, EPS, NY)
    mom = st.momentum_real(f, "stretch", cross)
    assert np.max(np.abs(mom[:, 0] - (md.c1 + md.c2))) < 1e-12
    assert np.max(np.abs(mom[:, 1] - g)) < 1e-12


def test_momentum_bend_no_longitudinal(cross):
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((N * NY, 3 * cross.n_nodes)).astype(complex)
    vals.reshape(N * NY, -1, 3)[:, :, 2] = 0.0
    f = tr.LineField(vals, EPS, NY)
    b_eps = st.momentum_real(f, "bend", cross)
    # without a third component the eps-dependent term vanishes identically
    one = cross_mass(cross) @ np.ones(cross.n_nodes)
    v = f.values.reshape(f.S, -1, 3)
    b0 = np.column_stack([v[:, :, 0] @ one, v[:, :, 1] @ one])
    assert np.max(np.abs(b_eps - b0)) == 0.0


def test_momentum_transform_identity(lf, cross):
    # pulling the fiber momenta back through the transform equals the
    # real-domain momenta of the smoothed field
    mesh = ProductMesh(cross, NY)
    forms = fem.assemble(MaterialProfile.constant(make_isotropic(1.0, 1.0)), mesh)
    b = tr.gelfand(lf)
    moms = np.array([fiber.FiberOps(forms, b.chis[k], "general_chi2").momentum(b.fibers()[k])
                     for k in range(N)])
    lifted = tr.FiberBundle(np.broadcast_to(moms[:, None, :], (N, NY, 4)).copy(),
                            b.chis, EPS)
    lhs = tr.gelfand_inverse(lifted).values
    rhs = st.momentum_real(tr.xi_smoothing(lf), "rod", cross)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_apply_scaling_tags(cross):
    vals = np.ones((N * NY, 3 * cross.n_nodes))
    f = tr.LineField(vals, EPS, NY)
    out = fiber.apply_load_scaling(f.values, "s_eps_delta", eps=EPS, delta=0.0)
    assert np.max(np.abs(out - f.values)) == 0.0
    out = fiber.apply_load_scaling(f.values, "s_inf")
    assert np.max(np.abs(out.reshape(f.S, -1, 3)[:, :, 2])) == 0.0
    out = fiber.apply_load_scaling(f.values, "s_abs_chi", chi=0.5)
    back = out.reshape(f.S, -1, 3)[:, :, 2] * 0.5
    assert np.max(np.abs(back - 1.0)) < 1e-15

