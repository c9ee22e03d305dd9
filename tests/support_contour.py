"""Contour-quadrature validation of the t-substitution: the chain
coefficients against trapezoid-rule contour integrals of the scaled
resolvent family. Validation-only; not part of the library."""

import numpy as np
import scipy.linalg as sla

from rodhom import fiber, homogenize as hz


class ContourTooClose(Exception):
    pass


def _contour(eigs):
    """Circle enclosing the positive pencil eigenvalues with clearance on
    both sides (the scaling-function pole sits on the negative axis)."""
    eigs = np.asarray(eigs, dtype=float)
    c0 = float((np.max(eigs) + np.min(eigs)) / 2.0)
    half = float(np.max(eigs) - np.min(eigs)) / 2.0
    gap = c0 - half  # distance from the circle of the eigenvalues to zero
    if gap < 0.05 * c0:
        raise ContourTooClose("eigenvalue too close to the origin for a safe circle")
    radius = half + 0.3 * gap
    return c0, radius


def _quad_contour(fn, c0, radius, nodes):
    """(2 pi i)^-1 closed contour integral by the trapezoid rule on a circle."""
    th = 2 * np.pi * np.arange(nodes) / nodes
    z = c0 + radius * np.exp(1j * th)
    dz = 1j * radius * np.exp(1j * th)
    vals = sum(fn(zz) * dd for zz, dd in zip(z, dz))
    return vals / (1j * nodes)


def contour_quadrature_check(forms, chi, eps, gamma, f, regime="stretch", nodes=256):
    """Compare the t-substitution chain coefficients against contour
    integrals of the scaled resolvent family.

    Returns relative discrepancies for the leading term, the first-order
    corrector, and (stretch) the refined coefficient with its double-pole
    structure, plus a quadrature self-check at doubled node count.
    """
    t = eps ** (-(gamma + 2))
    power = 2 if regime in ("stretch", "general_chi2") else 4
    sc = chi ** power
    ops = fiber.FiberOps(forms, chi, regime)
    A, C = ops.A, ops.C
    g = fiber.apply_load_scaling(f, "none" if power == 2 else "s_abs_chi", chi)
    mom = ops.momentum(g)

    Asc = A / sc  # O(1) pencil
    eigs = sla.eigvalsh(Asc, C)
    pole = -1.0 / (t * sc)
    c0, radius = _contour(eigs)
    if abs(pole - c0) <= radius:
        raise ContourTooClose("scaling-function pole inside the contour")

    def R(z):
        return np.linalg.inv(z * C - Asc)

    def gfun(z):
        return 1.0 / (t * sc * z + 1.0)

    T = np.linalg.inv(t * A + C)
    m_direct = T @ mom
    out = {}

    m_contour = _quad_contour(lambda z: gfun(z) * (R(z) @ mom), c0, radius, nodes)
    m_oracle = _quad_contour(lambda z: gfun(z) * (R(z) @ mom), c0, radius, 2 * nodes)
    out["leading"] = float(np.linalg.norm(m_contour - m_direct) / np.linalg.norm(m_direct))
    out["leading_quadrature"] = float(
        np.linalg.norm(m_contour - m_oracle) / np.linalg.norm(m_direct))

    # first-order corrector is B1 applied to the same coefficients
    B1 = ops.B1
    u1_direct = B1 @ m_direct
    u1_contour = B1 @ m_contour
    nrm = np.linalg.norm(u1_direct)
    out["corrector"] = float(np.linalg.norm(u1_contour - u1_direct) / nrm) if nrm > 0 else 0.0

    if regime != "stretch":
        return out

    # refined coefficient m^(1): build the affine pieces P-hat, Q, S-hat of
    # r(t) = t P m + Q m + S f and compare against the double-resolvent
    # contour formula
    # the projection's test columns for stretch: the Lambda data of its
    # slots 3 and 4, weighted by conj G(chi)
    E, Ts, Tx, c = ops.E, forms.Ls[:, 2:], forms.Lx[:, 2:], np.conj(hz.g_scaling(chi)[2:])
    nb = E.shape[1]
    n = forms.mesh.n_dof
    zero = np.zeros(n)
    # each affine piece on its own is not kernel-orthogonal, which the
    # library's quotient solver rejects; the dense saddle system
    # [[K_ss, (Z M)^T], [Z M, 0]] with the rigid motions Z solves any load on
    # the rigid-motion quotient
    ZM = forms.kernel_fields @ forms.M
    saddle = sla.lu_factor(np.block([[forms.K_ss.toarray(), ZM.T], [ZM, np.zeros((4, 4))]]))

    def solve(b):
        return sla.lu_solve(saddle, np.concatenate([b, np.zeros(4)]))[:n]

    def moments(u, v):
        # int A(sym-grad u + i chi X v) : conj(T) over the projection's test fields T
        return c * (Ts.T @ u + 1j * chi * (Tx.T @ v))

    def Shat(h):
        return -moments(solve(forms.M @ h), zero)

    Phat = np.zeros((nb, nb), dtype=complex)
    for r in range(nb):
        u1 = B1[:, r]
        w = solve(chi * (forms.K_sx @ u1) + ops.lam[:, r])
        Phat[:, r] = moments(w, -u1)
    Q = np.zeros((nb, nb), dtype=complex)
    for r in range(nb):
        Q[:, r] = -Shat(E[:, r])
    Sf = Shat(g)

    m1_direct = T @ (t * (Phat @ m_direct) + Q @ m_direct + Sf)

    def integrand(z):
        Rz = R(z)
        return gfun(z) * (Rz @ ((-Phat / sc + z * Q) @ (Rz @ mom)) + Rz @ Sf)

    m1_contour = _quad_contour(integrand, c0, radius, nodes)
    m1_oracle = _quad_contour(integrand, c0, radius, 2 * nodes)
    nrm = np.linalg.norm(m1_direct)
    out["refined"] = float(np.linalg.norm(m1_contour - m1_direct) / nrm)
    out["refined_quadrature"] = float(np.linalg.norm(m1_contour - m1_oracle) / nrm)
    return out
