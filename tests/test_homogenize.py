import numpy as np
import pytest

from rodhom import fem, fiber, homogenize as hz
from rodhom.geometry import ProductMesh, build_rectangle
from rodhom.material import MaterialProfile, make_isotropic

from support_cell import chi_tensor_direct
from support_embedding import nodal_field
from support_quadrature import gauss_points, graded_square, j_voigt
from support_torsion import torsion_constant


def layered_profile(contrast=5.0):
    return MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                            (0.0, 0.5, make_isotropic(contrast, contrast))])


@pytest.fixture(scope="module")
def forms_hom():
    # homogeneous material; y-resolution can stay minimal
    mesh = ProductMesh(build_rectangle(1.0, 10, 10), 2)
    return fem.assemble(MaterialProfile.constant(make_isotropic(1.0, 1.0)), mesh)


@pytest.fixture(scope="module")
def forms_lay():
    mesh = ProductMesh(build_rectangle(1.0, 4, 4), 8)
    return fem.assemble(layered_profile(), mesh)


def test_j_matrix_entries():
    # J_m as an engineering Voigt vector: J_33 in slot 33, and 2 J_13 in
    # slot 13
    expect = np.zeros(6)
    expect[2] = -1.0
    assert np.allclose(j_voigt([1, 0, 0, 0], (1.0, 0.0)), expect)
    expect = np.zeros(6)
    expect[4] = 1.0
    assert np.allclose(j_voigt([0, 0, 1, 0], (0.0, 1.0)), expect)
    assert np.allclose(j_voigt([0, 0, 0, 0], (0.3, -0.2)), 0)


def test_lambda_matrix():
    # Lambda_m is J of the coefficients G(chi) m
    def lam(chi, m, xhat):
        return j_voigt(hz.g_scaling(chi) * np.asarray(m, dtype=complex), xhat)
    assert np.allclose(lam(0.0, [1, 2, 3, 4], (0.5, 0.5)), 0)
    L = lam(0.1, [0, 0, 0, 1], (0.0, 0.0))
    assert abs(L[2] - 0.1j) < 1e-15
    # bending data scales with (i chi)^2
    L = lam(0.2, [1, 0, 0, 0], (1.0, 0.0))
    assert abs(L[2] - 0.04) < 1e-15


def test_lambda_bend_l2_norm(forms_hom):
    chi = 0.3
    m = hz.g_scaling(chi) * [1, 0, 0, 0]
    # engineering Voigt: plain sum of squares only for the normal slot used here
    nrm = np.sqrt(sum(w * np.sum(np.abs(j_voigt(m, xhat)) ** 2)
                      for _, w, _, _, _, xhat in gauss_points(forms_hom)))
    assert abs(nrm - chi ** 2 * np.sqrt(1 / 12)) < 1e-3


def test_poisson_contraction_corrector(forms_hom):
    # m = e4 on a homogeneous isotropic cell: analytic transverse contraction
    u = hz.solve_cell(forms_hom, [0, 0, 0, 1])
    lam = mu = 1.0
    nu_p = lam / (2 * (lam + mu))
    x1, x2, _ = forms_hom.mesh.node_coords().T
    expect = nodal_field(-nu_p * x1, -nu_p * x2, np.zeros_like(x1))
    assert np.linalg.norm(u - expect) < 1e-8 * np.linalg.norm(expect)
    # constraint: zero mean
    assert np.max(np.abs(forms_hom.kernel_fields @ (forms_hom.M @ u))) < 1e-10


def test_cell_corrector_y_independent_for_homogeneous(forms_hom):
    basis = hz.cell_basis(forms_hom)
    n_c = forms_hom.mesh.cross.n_nodes
    for u in basis:
        v = u.reshape(forms_hom.mesh.n_y, 3 * n_c)
        assert np.max(np.abs(v - v[0])) < 1e-8


def test_rod_tensor_classical_limits(forms_hom):
    rt = hz.rod_tensor(forms_hom)
    lam = mu = 1.0
    E = mu * (3 * lam + 2 * mu) / (lam + mu)
    assert abs(rt.A_stretch[1, 1] - E) < 0.02 * E
    assert abs(rt.A_bend[0, 0] - E / 12) < 0.02 * E / 12
    assert abs(rt.A_bend[1, 1] - E / 12) < 0.02 * E / 12
    J = torsion_constant(n=80)  # 0.140577 for the unit square
    assert abs(rt.A_stretch[0, 0] - mu * J) < 0.05 * mu * J


def test_graded_cross_section_classical_limit():
    # every element of a graded mesh has its own geometry: the volume, the
    # exact stretch modulus and the bending stiffness all see that
    forms = fem.assemble(MaterialProfile.constant(make_isotropic(1.0, 1.0)),
                         ProductMesh(graded_square(4), 2))
    one = forms.kernel_fields[0]
    assert abs(one @ (forms.M @ one) - 1.0) < 1e-12
    rt = hz.rod_tensor(forms)
    E = 2.5
    assert abs(rt.A_stretch[1, 1] - E) < 1e-10
    assert np.all(np.abs(np.diag(rt.A_bend) - E / 12) < 0.02 * E / 12)


def test_rod_tensor_layered_properties(forms_lay):
    rt = hz.rod_tensor(forms_lay)
    A = rt.A_rod
    assert np.max(np.abs(A - A.T)) < 1e-10 * np.max(np.abs(A))
    assert rt.eta > 0
    # isotropic layers: no bend/stretch coupling
    assert np.max(np.abs(A[:2, 2:])) < 1e-8 * np.max(np.abs(A))
    assert np.all(np.linalg.eigvalsh(rt.A_bend) > 0)
    assert np.all(np.linalg.eigvalsh(rt.A_stretch) > 0)


def test_galerkin_energy_decreases_under_refinement():
    prof = layered_profile()
    energies = []
    for n in [2, 4, 6]:
        mesh = ProductMesh(build_rectangle(1.0, n, n), 4)
        forms = fem.assemble(prof, mesh)
        rt = hz.rod_tensor(forms)
        energies.append(rt.A_rod[3, 3])  # energy of the m = e4 cell problem
    assert energies[0] >= energies[1] >= energies[2]


def test_chi_tensor_hermitian_and_scaling(forms_lay):
    chi = 0.35
    A = chi_tensor_direct(forms_lay, chi)
    assert np.max(np.abs(A - A.conj().T)) < 1e-12 * np.max(np.abs(A))
    # scaling identity against the J-basis route
    A2 = hz.chi_tensor(forms_lay, chi)
    assert np.max(np.abs(A - A2)) < 1e-10 * np.max(np.abs(A2))
    # positive on nonzero vectors
    rng = np.random.default_rng(0)
    for _ in range(3):
        m = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = (A @ m) @ np.conj(m)
        assert abs(q.imag) < 1e-10 * abs(q)
        assert q.real > 0


def test_chi_tensor_stretch_restriction(forms_lay):
    chi = 0.25
    A = chi_tensor_direct(forms_lay, chi)
    rt = hz.rod_tensor(forms_lay)
    assert np.max(np.abs(A[2:, 2:] - chi ** 2 * rt.A_stretch)) \
        < 1e-8 * np.max(np.abs(rt.A_stretch))


def test_corrector_map_linearity(forms_lay):
    B1 = fiber.FiberOps(forms_lay, 0.3, "stretch").B1
    z = B1 @ np.zeros(2)
    assert np.linalg.norm(z) == 0
    m = np.array([0.7, -1.2])
    assert np.max(np.abs(B1 @ (2.5 * m) - 2.5 * (B1 @ m))) < 1e-12 * np.max(np.abs(B1 @ m))


def test_corrector_map_matches_direct_solve(forms_lay):
    chi = 0.4
    B1 = fiber.FiberOps(forms_lay, chi, "general_chi4").B1
    m = np.array([0.3, -0.1, 0.8, 0.5])
    u_fast = B1 @ m
    u_direct = hz.solve_cell(forms_lay, hz.g_scaling(chi) * m)
    assert np.linalg.norm(u_fast - u_direct) < 1e-9 * max(np.linalg.norm(u_direct), 1)
