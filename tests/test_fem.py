import gc
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from rodhom import fem, fiber, homogenize as hz, pipeline as pl
from rodhom.geometry import (CrossSectionMesh, ProductMesh, build_rectangle, cross_mass,
                             is_centrally_symmetric, node_pairing)
from rodhom.material import ElasticityTensor, MaterialProfile, make_isotropic

from support_config import intertwined_profile
from support_embedding import nodal_field
from support_quadrature import (cross_mass_loop, gauss_points, graded_square, j_voigt,
                                strain_matrices, total_area)
from support_symmetry import expected_group


def dense_saddle_solve(forms, load):
    """u of the saddle system [[K_ss, R^T], [R, 0]] [u, lam] = [load, 0] with
    the constraint rows R = Z M of the rigid motions Z, from one dense complex
    solve: the solution on the rigid-motion quotient for any load."""
    R = forms.kernel_fields @ forms.M
    A = np.block([[forms.K_ss.toarray(), R.T], [R, np.zeros((4, 4))]])
    return np.linalg.solve(A.astype(complex), np.concatenate([load, np.zeros(4)]))[:len(load)]


def layered_profile(contrast=5.0):
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                            (0.0, 0.5, make_isotropic(contrast, contrast))])


def h1_norm_sq(forms, u, component=None, chi=0.0, eps=1.0):
    """The squared H1 norm of the components labelled component, of one
    fiber or summed over a stack: the H1 parts of norm_sq_parts summed over
    the component's displacement columns."""
    h1 = forms.norm_sq_parts(u, True, chi, eps)[1]
    return float(np.sum(h1[..., fem.COMPONENTS[component]]))


@pytest.fixture(scope="module")
def forms():
    mesh = ProductMesh(build_rectangle(1.0, 4, 4), 4)
    return fem.assemble(layered_profile(), mesh)


@pytest.fixture()
def default_forms():
    """Forms of the default 4x4x8 cell with no cached LU, one per test: a
    count of factorisations must not depend on which tests ran first."""
    return fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 4, 4), 8))


def test_hermitian(forms):
    for chi in [0.0, 0.3, -1.1]:
        K = forms.K(chi)
        assert (abs(K - K.conj().T)).max() < 1e-12 * abs(K).max()


def test_conjugation_in_chi(forms):
    K1 = forms.K(0.4)
    K2 = forms.K(-0.4)
    assert (abs(K2 - K1.conj())).max() < 1e-12 * abs(K1).max()


def test_mass_spd(forms):
    M = forms.M
    assert (abs(M - M.T)).max() < 1e-14
    rng = np.random.default_rng(0)
    for _ in range(3):
        v = rng.standard_normal(forms.mesh.n_dof)
        assert v @ (M @ v) > 0


def test_rigid_motions_in_kernel_at_chi0(forms):
    K = forms.K_ss
    scale = abs(K).max()
    for r in forms.kernel_fields:
        assert np.linalg.norm(K @ r) <= 1e-10 * scale * np.linalg.norm(r)


def curved_graded_cross():
    """A graded cross mesh with curved grid lines: every element is a
    different, non-parallelogram quad."""
    sq = graded_square(4)
    x1, x2 = sq.nodes.T
    return CrossSectionMesh(np.column_stack([x1 + 0.05 * np.sin(2 * np.pi * x2),
                                             x2 + 0.05 * np.sin(2 * np.pi * x1)]), sq.elements)


def test_cross_mass_on_curved_mesh():
    # against a per-element loop of the same 2x2 Gauss rule, and the total
    # against the polygon area (the rule is exact for det J)
    cross = curved_graded_cross()
    want = cross_mass_loop(cross)
    got = cross_mass(cross)
    assert np.max(np.abs(got - want)) < 1e-15 * np.max(want)
    one = np.ones(cross.n_nodes)
    assert abs(one @ got @ one - total_area(cross)) < 1e-14


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 4), bow=st.floats(-0.05, 0.05), stretch=st.floats(0.5, 2.0),
       shear=st.floats(-0.5, 0.5), interface=st.floats(-0.4, 0.4),
       seed=st.integers(0, 2 ** 16), chi=st.floats(-3.0, 3.0))
def test_form_properties_on_random_cells(n, bow, stretch, shear, interface, seed, chi):
    # a centrally symmetric graded cross mesh: graded_square with an odd bow
    # of its grid lines, under a linear map of determinant 1; two coercive
    # layers L L^T + I/10 with random L and a random interface
    sq = graded_square(n)
    x = sq.nodes + bow * np.sin(2 * np.pi * sq.nodes[:, ::-1])
    cross = CrossSectionMesh(x @ np.array([[stretch, 0.0], [shear, 1.0 / stretch]]), sq.elements)
    assert is_centrally_symmetric(cross)[0]
    C = [L @ L.T + 0.1 * np.eye(6) for L in np.random.default_rng(seed).standard_normal((2, 6, 6))]
    profile = MaterialProfile([(-0.5, interface, ElasticityTensor(C[0])),
                               (interface, 0.5, ElasticityTensor(C[1]))])
    forms = fem.assemble(profile, ProductMesh(cross, 2))

    K = forms.K(chi)
    scale = abs(K).max()
    assert abs(K - K.conj().T).max() <= 1e-12 * scale
    assert abs(forms.K(-chi) - K.conj()).max() <= 1e-12 * scale
    # the four rigid motions lie in the kernel of K(0), and span it
    K0, M = forms.K_ss.toarray(), forms.M.toarray()
    assert np.max(np.abs(K0 @ forms.kernel_fields.T)) <= 1e-10 * np.max(np.abs(K0))
    lam = sla.eigh(K0, M, eigvals_only=True)
    assert np.max(np.abs(lam[:4])) <= 1e-10 * lam[-1] < lam[4]
    # a translation has mass the section volume: its area times the unit cell
    one = forms.kernel_fields[0]
    assert abs(one @ (forms.M @ one) - total_area(cross)) <= 1e-12
    # the quotient solve is the saddle solution, whichever four dofs it pins
    w = [1, 1j] @ np.random.default_rng(seed).standard_normal((2, forms.mesh.n_dof))
    load = forms.K_ss @ w
    want = dense_saddle_solve(forms, load)
    assert np.linalg.norm(forms.quotient.solve(load)[0] - want) <= 1e-10 * np.linalg.norm(want)


def test_energy_identity():
    # the assembled operators against an element-by-element Gauss loop
    forms = fem.assemble(layered_profile(), ProductMesh(curved_graded_cross(), 4))
    rng = np.random.default_rng(1)
    u = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    chi, eps = 0.7, 0.3
    energy = mass = h1 = 0.0
    Ls = np.zeros((forms.mesh.n_dof, 4))
    Lx = np.zeros((forms.mesh.n_dof, 4))
    J_gram = np.zeros((4, 4))
    for dofs, w, N, G, D, xhat in gauss_points(forms):
        Bs, Bx = strain_matrices(N, G)
        ue = u[dofs]
        strain = Bs @ ue + 1j * chi * (Bx @ ue)
        energy += w * np.vdot(strain, D @ strain)
        vals = N @ ue.reshape(8, 3)
        grads = G @ ue.reshape(8, 3)
        mass += w * np.sum(np.abs(vals) ** 2)
        h1 += w * (np.sum(np.abs(vals) ** 2) + np.sum(np.abs(grads[:2]) ** 2)
                   + np.sum(np.abs(grads[2] + 1j * chi * vals) ** 2) / eps ** 2)
        J = np.array([j_voigt(m, xhat) for m in np.eye(4)]).T
        Ls[dofs] += w * Bs.T @ D @ J
        Lx[dofs] += w * Bx.T @ D @ J
        J_gram += w * J.T @ D @ J
    quad = np.vdot(u, forms.K(chi) @ u)
    assert abs(energy - quad) < 1e-10 * abs(quad)
    assert abs(mass - np.vdot(u, forms.M @ u)) < 1e-10 * mass
    assert abs(mass - forms.norm_sq_l2(u)) < 1e-10 * mass
    assert abs(h1 - h1_norm_sq(forms, u, None, chi, eps)) < 1e-10 * h1
    for got, want in ((forms.Ls, Ls), (forms.Lx, Lx), (forms.J_gram, J_gram)):
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_norms_of_fiber_stacks(forms):
    # a (K, n_dof) stack with one chi per fiber is the sum of its fibers'
    # norms; with its defaults, the H1 part is u^H (M1 + S_hat + S_y) u over
    # the component's displacement columns
    rng = np.random.default_rng(6)
    V = rng.standard_normal((3, forms.mesh.n_dof)) + 1j * rng.standard_normal((3, forms.mesh.n_dof))
    chis, eps = np.array([0.7, -1.2, 0.0]), 0.3
    A = forms.M1 + forms.S_hat + forms.S_y
    for c in (None, "12", "3"):
        want = sum(h1_norm_sq(forms, v, c, chi, eps) for v, chi in zip(V, chis))
        assert abs(h1_norm_sq(forms, V, c, chis, eps) - want) <= 1e-13 * want
        want = sum(forms.norm_sq_l2(v, c) for v in V)
        assert abs(forms.norm_sq_l2(V, c) - want) <= 1e-13 * want
        U = V[0].reshape(-1, 3)[:, fem.COMPONENTS[c]]
        want = sum(np.vdot(col, A @ col).real for col in U.T)
        assert abs(h1_norm_sq(forms, V[0], c) - want) <= 1e-13 * want


def test_rejects_inverted_element():
    cross = build_rectangle(1.0, 2, 2)
    elements = cross.elements.copy()
    elements[1] = elements[1][::-1]       # clockwise: negative Jacobian
    with pytest.raises(ValueError, match="element 1"):
        fem.assemble(layered_profile(), ProductMesh(CrossSectionMesh(cross.nodes, elements), 2))


def test_forms_freed_without_cycle_collector():
    # the cached quotient solver must not refer back to the forms, or a
    # dropped set-up stays resident until the cyclic collector runs
    gc.disable()
    try:
        forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 2))
        forms.quotient
        hz.cell_basis(forms)
        ref = weakref.ref(forms)
        del forms
        assert ref() is None
    finally:
        gc.enable()


def test_positive_semidefinite(forms):
    rng = np.random.default_rng(2)
    for chi in [0.0, 0.5]:
        K = forms.K(chi)
        for _ in range(3):
            u = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
            assert np.vdot(u, K @ u).real > -1e-10


def test_saddle_zero_load(forms):
    u, residual = forms.quotient.solve(np.zeros(forms.mesh.n_dof))
    assert np.linalg.norm(u) == 0 and residual == 0


def test_saddle_consistency(forms):
    # load = t*K*w for constrained w gives back w
    rng = np.random.default_rng(3)
    w = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    # project w onto the constraint set: subtract rigid components in the M inner product
    B = forms.kernel_fields.T
    G = B.T @ (forms.M @ B)
    w -= B @ np.linalg.solve(G, B.T @ (forms.M @ w))
    t = 2.5
    load = t * (forms.K_ss @ w)
    u = forms.quotient.solve(load, t=t)[0]
    assert np.linalg.norm(u - w) < 1e-8 * np.linalg.norm(w)
    # solution satisfies the constraints
    assert np.max(np.abs(forms.kernel_fields @ (forms.M @ u))) < 1e-10 * np.linalg.norm(w)


def test_saddle_rejects_incompatible_load(forms):
    load = forms.M @ forms.kernel_fields[0].astype(complex)
    with pytest.raises(fem.IncompatibleLoad):
        forms.quotient.solve(load)


def test_saddle_complex_load_matches_dense_solve(forms):
    # the real LU solves the real and imaginary parts as two columns; for a
    # compatible load the result must be the complex solve of the saddle
    # matrix, and the residual returned the load's worst kernel residual
    rng = np.random.default_rng(11)
    n = forms.mesh.n_dof
    B = forms.kernel_fields.T
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    load = f - forms.M @ (B @ np.linalg.solve(B.T @ (forms.M @ B), B.T @ f))
    want = dense_saddle_solve(forms, load)
    got, residual = forms.quotient.solve(load)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.max(np.abs(forms.kernel_fields @ (forms.M @ got))) <= 1e-10 * np.linalg.norm(load)
    assert residual == np.max(np.abs(forms.kernel_fields @ load))


def compatible_loads(forms, k, seed):
    """k random loads (n_dof, k) with their M-rigid parts removed."""
    rng = np.random.default_rng(seed)
    B = forms.kernel_fields.T
    F = rng.standard_normal((forms.mesh.n_dof, k)) + 1j * rng.standard_normal((forms.mesh.n_dof, k))
    return F - forms.M @ (B @ np.linalg.solve(B.T @ (forms.M @ B), B.T @ F))


def test_saddle_block_solve_matches_single_loads(forms):
    # a block of k loads is one real solve of 2k columns; each column is the
    # solve of its own load, and the residual the block's worst
    loads = compatible_loads(forms, 5, seed=13)
    got, residual = forms.quotient.solve(loads, t=2.5)
    singles = [forms.quotient.solve(f, t=2.5) for f in loads.T]
    for u, (want, _) in zip(got.T, singles):
        assert np.linalg.norm(u - want) <= 1e-14 * np.linalg.norm(want)
    assert residual == np.max(np.abs(forms.kernel_fields @ loads))


def test_saddle_block_rejects_one_small_incompatible_column(forms):
    # the kernel residual is checked against each column's own norm: one
    # small rigid-motion column must not hide behind large compatible ones,
    # against whose norm its residual would pass
    loads = 1e10 * compatible_loads(forms, 3, seed=14)
    bad = forms.M @ forms.kernel_fields[0].astype(complex)
    block = np.column_stack([loads, bad])
    assert np.max(np.abs(forms.kernel_fields @ bad)) < fem.KERNEL_TOLERANCE * np.linalg.norm(loads[:, 0])
    with pytest.raises(fem.IncompatibleLoad):
        forms.quotient.solve(block)
    forms.quotient.solve(loads)   # the compatible columns alone pass


def test_saddle_rejects_a_nan_column(forms):
    # a NaN column has a NaN kernel residual, which no comparison with the
    # tolerance passes; it must not reach the LU and return NaN silently
    loads = compatible_loads(forms, 3, seed=15)
    loads[7, 1] = np.nan
    with pytest.raises(fem.IncompatibleLoad):
        forms.quotient.solve(loads)
    with pytest.raises(fem.IncompatibleLoad):
        forms.quotient.solve(loads[:, 1])


def test_resolvent_backward_error(forms):
    chi = 0.05
    t = chi ** -4
    rng = np.random.default_rng(12)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    u = fem.ResolventSolver(forms, chi, t).solve(f)
    A, b = t * forms.K(chi) + forms.M, forms.M @ f
    norm_A = abs(A).sum(axis=1).max()
    eta = np.abs(A @ u - b).max() / (norm_A * np.abs(u).max() + np.abs(b).max())
    assert eta <= 1e-14


def test_factorize_rejects_indefinite_hermitian(forms):
    A = forms.K(0.3) - 10.0 * forms.M
    # nonsingular: a dense solve recovers x, so only the positive-definite
    # guard rejects A
    x = np.random.default_rng(13).standard_normal(forms.mesh.n_dof)
    assert np.linalg.norm(np.linalg.solve(A.toarray(), A @ x) - x) <= 1e-8 * np.linalg.norm(x)
    with pytest.raises(fem.SingularSystem, match="not positive definite"):
        fem.factorize(A, forms.order)


@pytest.fixture(scope="module", params=["rectangle", "curved_graded"])
def any_forms(request, forms):
    if request.param == "rectangle":
        return forms
    return fem.assemble(layered_profile(), ProductMesh(curved_graded_cross(), 4))


def test_order_is_a_permutation_of_every_dof(any_forms):
    order = any_forms.order
    assert np.array_equal(np.sort(order), np.arange(any_forms.mesh.n_dof))
    # each node's three dofs stay together, in their own order
    nodes = order[::3] // 3
    assert np.array_equal(order.reshape(-1, 3), 3 * nodes[:, None] + np.arange(3))


def test_dissect_splits_when_most_nodes_share_the_least_coordinate():
    # a path of 12 nodes whose first 7 share the least coordinate along the
    # longest extent, so the median is that coordinate: they go left, node 7
    # separates them from the rest, and the recursion ends
    x = np.array([(0.0, 0.1 * k) for k in range(7)] + [(k, 0.0) for k in range(1, 6)])
    i = np.concatenate([np.arange(11), np.arange(1, 12)])
    j = np.concatenate([np.arange(1, 12), np.arange(11)])
    assert fem._dissect(x, i, j).tolist() == [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 7]


def test_ordered_lu_solves_match_spsolve(any_forms):
    # a resolvent in the parity basis, the pinned block matrix Q^T K_ss Q of
    # the quotient solver in the basis order and a shift-invert matrix
    # K(chi) - sigma M (sigma = -1) in forms.order, against SuperLU's own
    # ordering; each has condition number about 1e4 or less, so two direct
    # solves agree to 1e-12
    forms = any_forms
    chi = 0.3
    free = forms.quotient.free
    shifted = forms.K(chi) + forms.M
    cases = [(10.0 * forms.K(chi) + forms.M, fem.ResolventSolver(forms, chi, 10.0).lu),
             (forms.parity_basis.K_ss[free][:, free], forms.quotient.lu),
             (shifted, fem.factorize(shifted, forms.order))]
    rng = np.random.default_rng(14)
    for A, lu in cases:
        b = rng.standard_normal((A.shape[0], 2)) + 1j * rng.standard_normal((A.shape[0], 2))
        if not np.iscomplexobj(A.data):
            b = b.real
        want = spla.spsolve(sp.csc_matrix(A), b)
        for got, ref in ((lu.solve(b), want), (lu.solve(b[:, 0]), want[:, 0])):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_order_fills_less_than_minimum_degree():
    # on the default cell, the nested dissection of the product mesh leaves
    # fewer L+U entries than SuperLU's minimum degree on A^T + A
    forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 4, 4), 8))
    A = 0.1 ** -4 * forms.K(0.1) + forms.M
    mmd = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    lu = fem.factorize(A, forms.order).lu
    assert lu.L.nnz + lu.U.nnz < mmd.L.nnz + mmd.U.nnz


@pytest.mark.parametrize("chi", [0.0, 0.3, *pl.CHI_SWEEP])
def test_smallest_eigs_one_factorisation_and_dense_values(default_forms, monkeypatch, chi):
    # the shift-invert about -1/t on the resolvent LU of t K(chi) + M, with
    # t = chi^-4 on the sweep and the small positive shift at chi = 0
    forms = default_forms
    sizes = []
    splu = fem.spla.splu

    def counted(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counted)
    vals, _ = fem.smallest_eigs(forms, chi, 5)
    assert sizes == [forms.mesh.n_dof]
    ref = sla.eigh(forms.K(chi).toarray(), forms.M.toarray(), eigvals_only=True)[:5]
    assert np.all(np.abs(vals - ref) <= 1e-9 * np.abs(ref).max())


@pytest.mark.parametrize("chi", [0.0, *pl.CHI_SWEEP])
def test_smallest_eigs_backward_error(default_forms, chi):
    # every returned pair, against the exact |K(chi)|_1 of the assembled
    # matrix rather than the bound of its three parts the library uses
    forms = default_forms
    vals, vecs = fem.smallest_eigs(forms, chi, 5)
    K, M = forms.K(chi), forms.M
    scale = spla.norm(K, 1) + np.abs(vals) * spla.norm(M, 1)
    eta = np.linalg.norm(K @ vecs - M @ vecs * vals, axis=0) / (
        scale * np.linalg.norm(vecs, axis=0))
    assert np.all(eta <= 1e-10)


def test_smallest_eigs_rejects_a_pair_past_the_backward_tolerance(default_forms, monkeypatch):
    eigsh = fem.spla.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        noise = np.random.default_rng(15).standard_normal(len(vecs))
        vecs[:, 2] += 1e-6 * np.linalg.norm(vecs[:, 2]) * noise / np.linalg.norm(noise)
        return vals, vecs

    monkeypatch.setattr(fem.spla, "eigsh", perturbed)
    with pytest.raises(fem.NoConvergence, match="backward error"):
        fem.smallest_eigs(default_forms, 0.1, 5)


def test_spectrum_scaling_solve_budget(default_forms, monkeypatch):
    # ARPACK's solves on the 4x4x8 cell over the sweep: 202-246 when it
    # iterates to machine precision, 119-131 at tol 1e-12 on the 2k + 2
    # basis from a constant start vector (the counts move with BLAS's thread
    # count, through rounding), 119 from the sum of the rigid motions
    solves = 0
    solve = fem.OrderedLU.solve

    def counted(self, b):
        nonlocal solves
        solves += 1
        return solve(self, b)

    monkeypatch.setattr(fem.OrderedLU, "solve", counted)
    fiber.spectrum_scaling(default_forms, pl.CHI_SWEEP)
    assert 0 < solves <= 160


def test_smallest_eigs_kernel_dimension(forms):
    # the four rigid motions and a gap at chi = 0, on the 4x4x4 cell and on
    # the default and refined cells, 4x4x8 and 8x8x16; at chi = 0 the
    # backward error of lambda5 is sensitive to the start vector's last bits
    # (see smallest_eigs), so each cell is a separate check of it
    cells = [forms] + [fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, n, n), ny))
                       for n, ny in ((4, 8), (8, 16))]
    for cell in cells:
        vals, vecs = fem.smallest_eigs(cell, 0.0, 5)
        assert np.all(vals[:4] < 1e-8)
        assert vals[4] > 1e-3
        K, M = cell.K(0.0), cell.M
        for i in range(5):
            v = vecs[:, i]
            r = np.linalg.norm(K @ v - vals[i] * (M @ v))
            assert r < 1e-8 * abs(K).max()


def test_rayleigh_above_smallest(forms):
    vals, _ = fem.smallest_eigs(forms, 0.3, 1)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    K, M = forms.K(0.3), forms.M
    rq = (np.vdot(u, K @ u) / np.vdot(u, M @ u)).real
    assert rq >= vals[0] - 1e-10


def test_parity_projectors(forms):
    mesh = forms.mesh
    ok, pairing = is_centrally_symmetric(mesh.cross)
    assert ok
    rng = np.random.default_rng(5)
    u = rng.standard_normal(mesh.n_dof) + 1j * rng.standard_normal(mesh.n_dof)
    ub = fem.project_symmetry(u, "bend", mesh, pairing)
    us = fem.project_symmetry(u, "stretch", mesh, pairing)
    assert np.max(np.abs(ub + us - u)) < 1e-14
    assert np.max(np.abs(fem.project_symmetry(ub, "bend", mesh, pairing) - ub)) < 1e-14
    # constant (1, 0, 0) is pure bend parity; (x2, -x1, 0) pure stretch
    x1, x2, _ = mesh.node_coords().T
    zero = np.zeros_like(x1)
    e1 = nodal_field(np.ones_like(x1), zero, zero)
    assert np.max(np.abs(fem.project_symmetry(e1, "stretch", mesh, pairing))) < 1e-14
    rot = nodal_field(x2, -x1, zero)
    assert np.max(np.abs(fem.project_symmetry(rot, "stretch", mesh, pairing) - rot)) < 1e-14


def test_invariant_block_structure(forms):
    # with isotropic layers and the symmetric mesh, the stiffness does not
    # couple the two parity classes
    mesh = forms.mesh
    _, pairing = is_centrally_symmetric(mesh.cross)
    rng = np.random.default_rng(6)
    K = forms.K(0.45)
    scale = abs(K).max()
    for _ in range(3):
        u = rng.standard_normal(mesh.n_dof) + 1j * rng.standard_normal(mesh.n_dof)
        ub = fem.project_symmetry(u, "bend", mesh, pairing)
        coupled = fem.project_symmetry(np.asarray(K @ ub), "stretch", mesh, pairing)
        assert np.linalg.norm(coupled) < 1e-10 * scale * np.linalg.norm(ub)


def test_resolvent_energy_bound(forms):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
    u = fem.ResolventSolver(forms, 0.3, 10.0).solve(f)
    Mf = forms.M @ f
    Mu = forms.M @ u
    assert np.vdot(u, Mu).real <= np.vdot(f, Mf).real * (1 + 1e-10)
    r = 10.0 * (forms.K(0.3) @ u) + Mu - Mf
    assert np.linalg.norm(r) < 1e-10 * np.linalg.norm(Mf)


def test_dropping_the_forms_frees_every_cached_lu():
    # the cached resolvent LUs, one of them used by an eigensolve, whose
    # operator eigsh keeps in a reference cycle, those of a sweep, whose
    # eigensolves run on pool threads, and the quotient LU are all freed
    # with the forms, with no help from the cyclic collector
    gc.disable()
    try:
        forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 4))
        fem.smallest_eigs(forms, 0.2, 3)
        fiber.spectrum_scaling(forms, [0.3, 0.5], k=5)
        lus = [forms.resolvent(0.2, 0.2 ** -4).lu, forms.resolvent(0.4, 10.0).lu,
               forms.resolvent(0.3, 0.3 ** -4).lu, forms.resolvent(0.5, 0.5 ** -4).lu,
               forms.quotient.lu]
        assert len(forms._resolvents) == 4
        refs = [weakref.ref(forms)] + [weakref.ref(lu) for lu in lus]
        del forms, lus
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_sweep_runs_each_distinct_chi_once_two_at_a_time(monkeypatch):
    # the results come back in grid order, a repeated chi computed once; at
    # most two tasks run at once, on pool threads, each after its chi's
    # resolvent is factorised, and every factorisation is made on the
    # calling thread, which SuperLU needs to free the LU. The pool is joined
    # when the call returns
    forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 4))
    made, factorize = [], fem.factorize

    def counted(A, order):
        made.append(threading.current_thread())
        return factorize(A, order)

    monkeypatch.setattr(fem, "factorize", counted)
    lock, calls, running, peak = threading.Lock(), [], [0], [0]

    def task(chi):
        with lock:
            calls.append((chi, threading.current_thread(), (chi, 2.0) in forms._resolvents))
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.05)
        with lock:
            running[0] -= 1
        return -chi

    threads = threading.active_count()
    grid = [0.4, 0.2, 0.4, 0.1, 0.3]
    assert fem.sweep(forms, grid, task, lambda chi: [(chi, 2.0)]) == [-chi for chi in grid]
    assert sorted(chi for chi, _, _ in calls) == [0.1, 0.2, 0.3, 0.4]
    assert all(factorised for _, _, factorised in calls)
    assert peak[0] <= fem.SWEEP_THREADS == 2
    assert threading.current_thread() not in [thread for _, thread, _ in calls]
    # the quotient LU, then one resolvent per distinct chi
    assert made == [threading.current_thread()] * 5
    assert threading.active_count() == threads


def test_sweep_raises_the_first_error_in_grid_order_and_starts_no_more_tasks(forms):
    # once every chi is queued, chi = 0.3 fails first, while 0.4 runs; 0.4
    # then fails too, and being first in the grid its error reaches the
    # caller. No queued task starts after the first failure, and the pool is
    # joined before the raise
    first_started, queued, started = threading.Event(), threading.Event(), []

    def keys(chi):
        if chi == 0.05:
            queued.set()
        return []

    def task(chi):
        started.append(chi)
        if chi == 0.4:
            first_started.set()
            time.sleep(0.2)
        else:
            assert first_started.wait(10.0) and queued.wait(10.0)
            time.sleep(0.05)
        raise ValueError("chi %g" % chi)

    threads = threading.active_count()
    with pytest.raises(ValueError, match="^chi 0.4$"):
        fem.sweep(forms, [0.4, 0.3, 0.2, 0.1, 0.05], task, keys)
    assert sorted(started) == [0.3, 0.4]
    assert threading.active_count() == threads


def test_sweep_factorises_no_chi_after_a_failure(forms):
    # the first task fails while the calling thread asks for the second
    # chi's resolvents; it asks for no further chi's
    second, failed, asked = threading.Event(), threading.Event(), []

    def keys(chi):
        asked.append(chi)
        if chi != 0.4:
            second.set()
            assert failed.wait(10.0)
            time.sleep(0.05)
        return []

    def task(chi):
        assert second.wait(10.0)
        failed.set()
        raise ValueError("chi %g" % chi)

    with pytest.raises(ValueError, match="^chi 0.4$"):
        fem.sweep(forms, [0.4, 0.3, 0.2, 0.1], task, keys)
    assert asked == [0.4, 0.3]


def test_sweep_builds_the_lazy_state_before_any_task():
    # the parity basis with its resolvent blocks, or the dof order where the
    # forms do not split, the rod tensor and the 1-norms are built on the
    # calling thread before the first task starts, even where no chi asks
    # for a resolvent
    for profile, lazy in ((layered_profile(), "blocks"), (intertwined_profile(), "order")):
        forms = fem.assemble(profile, ProductMesh(build_rectangle(1.0, 2, 2), 4))
        owner = forms if forms.parity_basis is None else forms.parity_basis

        def task(chi):
            return [name in vars(obj) for obj, name in (
                (owner, lazy), (forms, "rod_tensor"), (forms, "one_norms"))]

        assert fem.sweep(forms, [0.4, 0.2], task, lambda chi: []) == [[True] * 3] * 2


# the sign flips g of x-hat, and the classes of the mirror split as the
# signs s of their characters chi_s(g) = s1^[g1 < 0] s2^[g2 < 0], in the
# order of ParityBasis: the bends in the x1 and the x2 plane, extension,
# torsion
FLIPS = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
MIRROR_CLASSES = [(-1, 1), (1, -1), (1, 1), (-1, -1)]


def class_part(f, mesh, s):
    """The part of the product-mesh field f in the mirror class s: the
    group average of chi_s(g) r_g f(g x-hat), r_g = (g1, g2, 1)."""
    v = f.reshape(mesh.n_y, mesh.cross.n_nodes, 3)
    part = 0.0
    for g in FLIPS:
        chi = (s[0] if g[0] < 0 else 1) * (s[1] if g[1] < 0 else 1)
        part = part + chi * v[:, node_pairing(mesh.cross, g)] * [g[0], g[1], 1]
    return (part / 4).ravel()


def assert_matches_dense_solve(forms, loads):
    # the basis LU against a dense solve of t K(chi) + M for each load
    # column; each (chi, t) keeps the condition number low enough for two
    # direct solves to agree to 1e-10
    for chi, t in [(0.0, 3.0), (0.3, 10.0), (-0.7, 2.0), (0.4, 0.4 ** -4), (1.3, 0.5)]:
        solver = forms.resolvent(chi, t)
        assert isinstance(solver.lu, fem.ParityLU)
        want = np.linalg.solve((t * forms.K(chi) + forms.M).toarray(), forms.M @ loads)
        got = solver.solve(loads)
        for g, w in zip(got.T, want.T):
            assert np.linalg.norm(g - w) <= 1e-10 * np.linalg.norm(w)
        assert np.linalg.norm(solver.solve(loads[:, 0]) - want[:, 0]) <= 1e-10 * np.linalg.norm(
            want[:, 0])


def assert_orthonormal_basis(basis, n):
    assert abs(basis.Q.T @ basis.Q - sp.identity(n)).max() <= 1e-15
    assert sum(basis.sizes) == n
    assert np.array_equal(np.sort(basis.order), np.arange(n))


@pytest.mark.parametrize("nx, n_y", [(2, 4), (4, 8)])
def test_split_resolvent_matches_dense_solve(nx, n_y):
    # isotropic layers on a rectangle split into the four mirror classes:
    # each class's part of a load lies in its block of Q's columns, and the
    # block LU solves loads of each class, of either parity and of all
    forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, nx, nx), n_y))
    basis = forms.parity_basis
    n = forms.mesh.n_dof
    assert len(basis.sizes) == 4
    assert_orthonormal_basis(basis, n)
    rng = np.random.default_rng(15)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    parts = [class_part(f, forms.mesh, s) for s in MIRROR_CLASSES]
    ends = np.cumsum(basis.sizes)
    for part, lo, hi in zip(parts, ends - basis.sizes, ends):
        Qk = basis.Q[:, lo:hi]
        assert np.linalg.norm(Qk @ (Qk.T @ part) - part) <= 1e-14 * np.linalg.norm(part)
    parity = [fem.project_symmetry(f, which, forms.mesh, forms.pairing)
              for which in ("bend", "stretch")]
    assert np.linalg.norm(parts[0] + parts[1] - parity[0]) <= 1e-14 * np.linalg.norm(f)
    assert_matches_dense_solve(forms, np.column_stack([f] + parts + parity))


def parallelogram(nx):
    """The square of build_rectangle sheared by x1 += 0.4 x2: centrally
    symmetric, symmetric under neither mirror."""
    square = build_rectangle(1.0, nx, nx)
    return CrossSectionMesh(square.nodes @ [[1.0, 0.0], [0.4, 1.0]], square.elements)


def mirror_breaking_profile():
    """A layer coupling e11 with 2e12: rod material symmetry, but neither
    mirror symmetry."""
    C = make_isotropic(5.0, 5.0).voigt.copy()
    C[0, 5] = C[5, 0] = 1.0
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)), (0.0, 0.5, ElasticityTensor(C))])


@pytest.mark.parametrize("profile, cross", [(mirror_breaking_profile(), build_rectangle(1.0, 2, 2)),
                                            (layered_profile(), parallelogram(2))])
def test_central_split_without_mirrors_keeps_two_classes(profile, cross):
    forms = fem.assemble(profile, ProductMesh(cross, 4))
    assert forms.pairing is not None
    assert list(forms.symmetry) == [(1, 1), (-1, -1)]
    basis = forms.parity_basis
    n = forms.mesh.n_dof
    assert len(basis.sizes) == 2
    assert_orthonormal_basis(basis, n)
    rng = np.random.default_rng(16)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    parity = [fem.project_symmetry(f, which, forms.mesh, forms.pairing)
              for which in ("bend", "stretch")]
    assert_matches_dense_solve(forms, np.column_stack([f] + parity))


def inversion_subgroup(forms):
    """The subgroup of the identity and the central inversion of the
    forms' symmetry group: the bend and stretch classes alone."""
    return {g: forms.symmetry[g] for g in ((1, 1), (-1, -1))}


@pytest.mark.parametrize("profile, cross, group", [
    (layered_profile(), build_rectangle(1.0, 4, 4), [(1, 1), (-1, -1), (-1, 1), (1, -1)]),
    (layered_profile(), build_rectangle(1.0, 8, 8), [(1, 1), (-1, -1), (-1, 1), (1, -1)]),
    (layered_profile(), build_rectangle(2.0, 4, 2), [(1, 1), (-1, -1), (-1, 1), (1, -1)]),
    (mirror_breaking_profile(), build_rectangle(1.0, 2, 2), [(1, 1), (-1, -1)]),
    (layered_profile(), parallelogram(2), [(1, 1), (-1, -1)]),
    (intertwined_profile(), build_rectangle(1.0, 2, 2), [(1, 1)])],
    ids=["square4", "square8", "aspect2", "mirror_breaking", "parallelogram", "intertwined"])
def test_symmetry_group_matches_the_flipped_cell(profile, cross, group):
    # the flips under which the rank-4 tensor of every layer and the node
    # coordinates are invariant, the group cut to the identity without the
    # central inversion: the intertwined material keeps its x2 mirror alone,
    # so it splits nothing. Each pairing is the node set's, and the forms
    # read the group
    got = fem.symmetry_group(profile, cross)
    assert list(got) == group == expected_group(profile, cross)
    assert np.array_equal(got[(1, 1)], np.arange(cross.n_nodes))
    for g, pairing in got.items():
        assert np.array_equal(pairing, node_pairing(cross, g))
        assert np.max(np.abs(cross.nodes[pairing] - cross.nodes * g)) <= 1e-10
    forms = fem.assemble(profile, ProductMesh(cross, 2))
    assert list(forms.symmetry) == group
    assert forms.pairing is forms.symmetry.get((-1, -1))
    assert (forms.parity_basis is None) == (len(group) == 1)


def test_split_lu_fills_less_than_the_dof_order(default_forms):
    # the class blocks factorise with fewer L+U entries than the coupled
    # matrix in forms.order
    forms = default_forms
    t = 0.1 ** -4
    split = forms.resolvent(0.1, t).lu.lu.lu
    whole = fem.factorize(t * forms.K(0.1) + forms.M, forms.order).lu
    assert split.L.nnz + split.U.nnz < 0.9 * (whole.L.nnz + whole.U.nnz)


def test_intertwined_forms_factorise_in_dof_order(forms):
    mixed = fem.assemble(intertwined_profile(), forms.mesh)
    assert mixed.pairing is None and mixed.parity_basis is None
    lu = mixed.resolvent(0.3, 10.0).lu
    assert isinstance(lu, fem.OrderedLU)
    assert np.array_equal(lu.order, mixed.order)


@pytest.mark.parametrize("name", ["K_ss", "K_sx", "K_xx", "M"])
def test_parity_basis_rejects_coupling(name):
    # an operator that couples the parity classes by 1e-9 of its largest
    # entry fails the check of the first resolvent, before any factorisation;
    # K_ss fails that of the quotient solver already, whose cell problems
    # need no other operator's blocks
    forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 4))
    A = getattr(forms, name)
    e = np.zeros(forms.mesh.n_dof)
    e[0] = 1.0   # u1 at node 0: half bend, half stretch
    bump = 1e-9 * abs(A).max() * sp.csr_matrix(np.outer(e, e))
    setattr(forms, name, (A + bump).tocsr())
    if name == "K_ss":
        with pytest.raises(fem.PairingMismatch, match=name):
            forms.quotient
    else:
        forms.quotient
    with pytest.raises(fem.PairingMismatch, match=name):
        forms.resolvent(0.3, 10.0)


@pytest.mark.parametrize("name", ["K_ss", "K_sx", "K_xx", "M"])
def test_mirror_basis_rejects_coupling_of_the_bend_classes(name):
    # u1 with u2 at node 0 and at its central image, by 1e-9 of the largest
    # entry: the bump is invariant under the central inversion, so the
    # two-class basis passes it, but it couples the bends in the x1 and the
    # x2 plane
    forms = fem.assemble(layered_profile(), ProductMesh(build_rectangle(1.0, 2, 2), 4))
    A = getattr(forms, name)
    image = 3 * node_pairing(forms.mesh.cross, (-1, -1))[0]
    bump = sp.lil_matrix(A.shape)
    for i in (0, image):
        bump[i, i + 1] = bump[i + 1, i] = 1e-9 * abs(A).max()
    setattr(forms, name, (A + bump).tocsr())
    two = fem.ParityBasis(forms, inversion_subgroup(forms))
    two.blocks   # checks K_sx, K_xx and M too
    assert len(two.sizes) == 2
    with pytest.raises(fem.PairingMismatch, match=name):
        forms.resolvent(0.3, 10.0)


def test_mirror_lu_fills_less_than_the_two_class_lu(default_forms):
    # on the default cell the four mirror blocks keep at most 0.6 times the
    # L+U entries of the bend and stretch blocks
    forms = default_forms
    chi, t = 0.1, 0.1 ** -4
    four = forms.resolvent(chi, t).lu.lu.lu
    basis = fem.ParityBasis(forms, inversion_subgroup(forms))
    two = fem.factorize(basis.matrix(chi, t), basis.order).lu
    assert len(forms.parity_basis.sizes) == 4 and len(basis.sizes) == 2
    assert four.L.nnz + four.U.nnz <= 0.6 * (two.L.nnz + two.U.nnz)


@pytest.mark.parametrize("profile, cross, n_y, classes", [
    (layered_profile(), build_rectangle(1.0, 2, 2), 4, 4),
    (layered_profile(), build_rectangle(1.0, 4, 4), 8, 4),
    (layered_profile(), parallelogram(2), 4, 2),
    (intertwined_profile(), build_rectangle(1.0, 2, 2), 4, None)])
def test_block_quotient_matches_dense_saddle_solve(profile, cross, n_y, classes):
    # the quotient solver on the class blocks of K_ss, or in the dof
    # numbering on the intertwined material, against the dense saddle solve
    # column by column, for compatible loads and each class's part of one;
    # the residual is the block's worst, and a rigid column is rejected
    # against its own norm, however large the others
    forms = fem.assemble(profile, ProductMesh(cross, n_y))
    basis = forms.parity_basis
    assert (None if basis is None else len(basis.sizes)) == classes
    loads = compatible_loads(forms, 3, seed=17)
    if basis is not None:
        ends = np.cumsum(basis.sizes)
        blocks = [basis.Q[:, lo:hi] for lo, hi in zip(ends - basis.sizes, ends)]
        loads = np.column_stack([loads] + [Qk @ (Qk.T @ loads[:, 0]) for Qk in blocks])
    got, residual = forms.quotient.solve(loads, t=2.5)
    for u, f in zip(got.T, loads.T):
        want = dense_saddle_solve(forms, f) / 2.5
        assert np.linalg.norm(u - want) <= 1e-10 * np.linalg.norm(want)
    assert residual == np.max(np.abs(forms.kernel_fields @ loads))
    for z in forms.kernel_fields:
        with pytest.raises(fem.IncompatibleLoad):
            forms.quotient.solve(np.column_stack([1e10 * loads, forms.M @ z.astype(complex)]))


@pytest.mark.parametrize("profile, cross, per_class", [
    (layered_profile(), build_rectangle(1.0, 2, 2), 1),
    (layered_profile(), parallelogram(2), 2),
    (mirror_breaking_profile(), build_rectangle(1.0, 2, 2), 2)])
def test_quotient_pins_the_rigid_motions_of_each_class(profile, cross, per_class):
    # each rigid motion lies in one class: the pivoted QR of Z Q pins one
    # coordinate in each of the four mirror classes, and two in each parity
    # class where only the central inversion holds
    forms = fem.assemble(profile, ProductMesh(cross, 4))
    sizes = forms.parity_basis.sizes
    pins = np.setdiff1d(np.arange(forms.mesh.n_dof), forms.quotient.free)
    classes = np.searchsorted(np.cumsum(sizes), pins, side="right")
    assert np.bincount(classes, minlength=len(sizes)).tolist() == [per_class] * len(sizes)


def test_block_quotient_lu_fills_half_the_dof_order_lu(default_forms):
    # on the default cell the quotient LU on the four class blocks keeps at
    # most half the L+U entries of K_ss pinned in the dof numbering and
    # factorised in forms.order
    forms = default_forms
    Z = forms.kernel_fields
    free = np.setdiff1d(np.arange(Z.shape[1]), sla.qr(Z, mode="r", pivoting=True)[1][:4])
    order = np.searchsorted(free, forms.order[np.isin(forms.order, free)])
    dof = fem.factorize(forms.K_ss[free][:, free], order).lu
    block = forms.quotient.lu.lu
    assert len(forms.parity_basis.sizes) == 4
    assert block.L.nnz + block.U.nnz <= 0.5 * (dof.L.nnz + dof.U.nnz)


def _real_operators(forms):
    """Every real operator of the forms, as stored, with the parity basis Q
    and its transpose, which the solvers apply."""
    ops = {name: getattr(forms, name) for name in ("K_ss", "K_xx", "P", "M", "M1", "S_hat", "S_y")}
    Q = forms.parity_basis.Q
    ops.update({"Q": Q, "Q.T": Q.T, "M csc": forms.M.tocsc()})
    return ops


def _blocks(n, rng):
    """A complex block of each layout the products meet: 1-D, one column,
    C-ordered, F-ordered and strided in either axis."""
    X = rng.standard_normal((n, 12)) + 1j * rng.standard_normal((n, 12))
    Y = rng.standard_normal((2 * n, 6)) + 1j * rng.standard_normal((2 * n, 6))
    return {"1-D": X[:, 0].copy(), "column": X[:, :1].copy(), "C": X, "F": np.asfortranarray(X),
            "strided columns": X[:, ::3], "strided rows": Y[::2], "strided 1-D": Y[::2, 1]}


def test_real_operators_multiply_complex_blocks_in_real_arithmetic(default_forms, monkeypatch):
    # each real operator of the forms, CSR or CSC, times a complex block of
    # any layout is == the product with its complex copy, and the sparse
    # kernel it runs sees only float64 operands: the block's real view
    forms = default_forms
    rng = np.random.default_rng(29)
    seen = []
    for base in (sp.csr_matrix, sp.csc_matrix):
        product = base._matmul_multivector

        def recorded(self, other, product=product):
            seen.append((self.dtype, other.dtype))
            return product(self, other)
        monkeypatch.setattr(base, "_matmul_multivector", recorded)
    for name, A in _real_operators(forms).items():
        assert A.dtype == np.float64
        assert isinstance(A, fem.RealCSC if A.format == "csc" else fem.RealCSR), name
        complex_copy = A.astype(complex)
        for layout, X in _blocks(A.shape[1], rng).items():
            want = complex_copy @ X
            del seen[:]
            got = A @ X
            assert seen == [(np.float64, np.float64)], (name, layout)
            assert got.dtype == want.dtype and got.shape == want.shape, (name, layout)
            assert np.array_equal(got, want), (name, layout)
            assert np.array_equal(A @ X.real, complex_copy.real @ X.real)


def test_imaginary_operators_keep_complex_products(default_forms):
    # K_sx and C_y hold imaginary entries, so they multiply as complex matrices
    forms = default_forms
    rng = np.random.default_rng(30)
    for A in (forms.K_sx, forms.C_y):
        assert A.dtype == np.complex128
        X = _blocks(A.shape[1], rng)["F"]
        assert np.array_equal(A @ X, sp.csr_matrix(A) @ X)


def test_smallest_eigs_gives_arpack_the_real_mass(default_forms, monkeypatch):
    # ARPACK's products with M take the real path; its eigenpairs are == those
    # it returns on the complex copy of M
    forms = default_forms
    eigsh, calls = fem.spla.eigsh, []

    def recorded(A, **kwargs):
        calls.append(kwargs["M"])
        out = eigsh(A, **kwargs)
        want = eigsh(A, **{**kwargs, "M": kwargs["M"].astype(complex)})
        assert np.array_equal(out[0], want[0]) and np.array_equal(out[1], want[1])
        return out

    monkeypatch.setattr(fem.spla, "eigsh", recorded)
    for chi in (0.4, 0.05):
        fem.smallest_eigs(forms, chi, 5)
    assert len(calls) == 2 and all(M is forms.M for M in calls)


def test_smallest_eigs_starts_arpack_in_every_class(default_forms, monkeypatch):
    # ARPACK's start vector, the modulated sum of the four rigid motions, has
    # a part in each class block of the mirror basis (Q^T v0 is nonzero on
    # every block), where a constant vector has none in torsion, and a part
    # outside the kernel, an invariant subspace at chi = 0
    forms = default_forms
    basis = forms.parity_basis
    eigsh, starts = fem.spla.eigsh, []

    def recorded(A, **kwargs):
        starts.append(kwargs["v0"])
        return eigsh(A, **kwargs)

    monkeypatch.setattr(fem.spla, "eigsh", recorded)
    fem.smallest_eigs(forms, 0.4, 5)

    def class_norms(v):
        parts = np.split(basis.Q.T @ v, np.cumsum(basis.sizes)[:-1])
        return np.array([np.linalg.norm(p) for p in parts]) / np.linalg.norm(v)

    assert len(basis.sizes) == 4 and len(starts) == 1
    assert np.min(class_norms(starts[0])) > 0.1
    assert class_norms(np.ones(forms.mesh.n_dof))[3] < 1e-14
    Z = forms.kernel_fields.T
    rest = starts[0] - Z @ np.linalg.lstsq(Z, starts[0], rcond=None)[0]
    assert np.linalg.norm(rest) > 1e-3 * np.linalg.norm(starts[0])


def test_norm_pass_gives_every_fiber_and_component(forms):
    # norm_sq_parts of a (loads, fibers, n_dof) stack, one chi per fiber, is
    # per fiber and displacement component the quadratic forms of the
    # component's column: u^H M1 u for L2 and u^H (M1 + S_hat + (S_y + chi
    # C_y + chi^2 M1) / eps^2) u for H1
    rng = np.random.default_rng(31)
    n = forms.mesh.n_dof
    V = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    chis, eps = np.array([0.7, -1.2, 0.0]), 0.3
    l2, h1 = forms.norm_sq_parts(V, True, chis, eps)
    assert l2.shape == h1.shape == (2, 3, 3)
    assert forms.norm_sq_parts(V)[1] is None
    M1, S_hat, S_y, C_y = (A.toarray() for A in (forms.M1, forms.S_hat, forms.S_y, forms.C_y))
    for i in range(2):
        for k, chi in enumerate(chis):
            for c in range(3):
                u = V[i, k].reshape(-1, 3)[:, c]
                want_l2 = np.vdot(u, M1 @ u).real
                want_h1 = np.vdot(u, (M1 + S_hat + (S_y + chi * C_y + chi ** 2 * M1) / eps ** 2)
                                  @ u).real
                assert abs(l2[i, k, c] - want_l2) <= 1e-13 * want_l2
                assert abs(h1[i, k, c] - want_h1) <= 1e-13 * want_h1
