"""Cell problems and effective rod tensors.

The coefficient vector m = (m1, m2, m3, m4) collects two bending curvatures,
the torsion rate and the stretching rate. The associated strain data are the
J-matrices; their chi-scaled versions are Lambda^bend = (i chi)^2 J^bend and
Lambda^stretch = i chi J^stretch, which we realise through the diagonal
scaling G(chi) = diag((i chi)^2, (i chi)^2, i chi, i chi). So the first-order
corrector map at a fiber is the cell basis times G(chi) (fiber.FiberOps.B1).
"""

from dataclasses import dataclass

import numpy as np


def j_voigt(m, coords):
    """The strain pattern J_m of the Bernoulli-Navier motion with
    coefficients m, as engineering Voigt vectors over a coordinate array
    whose last axis holds (x1, x2) or (x1, x2, y)."""
    coords = np.asarray(coords)
    x1, x2 = coords[..., 0], coords[..., 1]
    out = np.zeros(coords.shape[:-1] + (6,), dtype=np.result_type(np.asarray(m).dtype, float))
    out[..., 2] = -x1 * m[0] - x2 * m[1] + m[3]
    out[..., 3] = -x1 * m[2]
    out[..., 4] = x2 * m[2]
    return out


def g_scaling(chi):
    """G(chi): coefficient scaling turning J into Lambda, as the diagonal
    (..., 4) for a scalar chi or an array of them."""
    ic = 1j * np.asarray(chi)
    return np.stack([ic ** 2, ic ** 2, ic, ic], axis=-1)


# regimes select which coefficient slots are active
_REGIME_SLOTS = {"bend": slice(0, 2), "stretch": slice(2, 4), "rod": slice(0, 4)}


def solve_cell(forms, m):
    """Corrector u with int A(sym-grad u + J_m) : conj(sym-grad v) = 0 for
    all periodic v, posed on the rigid-motion quotient; m holds the
    (possibly complex) coefficients of the data J_m."""
    return forms.quotient.solve(-forms.Ls @ np.asarray(m))


def cell_basis(forms):
    """Cell correctors for the four canonical J-data, computed once per
    forms (AssembledForms.cell_basis).

    Every chi-dependent corrector is a linear combination of these (the data
    depend on chi only through G(chi)).
    """
    return forms.cell_basis


@dataclass
class RodTensor:
    A_rod: np.ndarray
    A_bend: np.ndarray
    A_stretch: np.ndarray
    eta: float

    @classmethod
    def from_stiffness(cls, A):
        """The rod tensor of a 4x4 stiffness, taken real and symmetrised."""
        A = A.real
        A = 0.5 * (A + A.T)
        return cls(A_rod=A, A_bend=A[:2, :2].copy(), A_stretch=A[2:, 2:].copy(),
                   eta=float(np.linalg.eigvalsh(A)[0]))


def rod_tensor(forms):
    """Effective 4x4 rod stiffness from the four cell problems, computed once
    per forms (AssembledForms.rod_tensor); entry (d, k) is
    int A(J_k + sym-grad u_k) : J_d."""
    return forms.rod_tensor


def chi_tensor(forms, chi):
    """The Hermitian 4x4 effective matrix G(chi)^H A_rod G(chi) at
    quasimomentum chi, in the rod slot order, for a scalar chi or stacked
    along the leading axes for an array of them; a regime takes the block of
    its slots. The cell problems with Lambda data are exactly the J-basis
    ones scaled by G(chi), so no cell problem is solved here (the tests
    compare a direct solve, tests/support_cell.py)."""
    g = g_scaling(chi)
    return np.conj(g)[..., :, None] * rod_tensor(forms).A_rod * g[..., None, :]
