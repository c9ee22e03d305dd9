"""Node-by-node constructions of the rod-coefficient embedding, its analytic
Gram matrices, and the leading-order line approximant, one fiber frequency
at a time: oracles for the column blocks E0, E1, the Gram matrix of
fiber.FiberOps and the vectorised limit_resolvent. Validation-only; not part
of the library."""

import numpy as np

from rodhom import homogenize as hz, transform as tr
from rodhom.geometry import compute_moments, cross_mass


def nodal_field(a, b, c):
    """Interleaved nodal field from per-node component arrays (a, b, c)."""
    out = np.zeros((len(a), 3), dtype=complex)
    out[:, 0], out[:, 1], out[:, 2] = a, b, c
    return out.reshape(-1)


def w_bend(x1, x2, chi, m):
    """The out-of-line tilt (0, 0, -i chi (m1 x1 + m2 x2)) of the bend slots."""
    zero = np.zeros_like(x1)
    return nodal_field(zero, zero, -1j * chi * (m[0] * x1 + m[1] * x2))


def s_rod(x1, x2, chi, m):
    """(m3 x2, -m3 x1, m4 - i chi (m1 x1 + m2 x2)): the embedding of the rod
    coefficients m without its in-plane translations."""
    return nodal_field(m[2] * x2, -m[2] * x1, m[3] - 1j * chi * (m[0] * x1 + m[1] * x2))


def const_hat(x1, a, b):
    """The in-plane translation (a, b, 0)."""
    return nodal_field(np.full_like(x1, a, dtype=complex),
                       np.full_like(x1, b, dtype=complex), np.zeros_like(x1))


def C_bend(md, chi):
    """The analytic Gram matrix of the bend embedding columns at chi."""
    return np.diag([1.0 + chi ** 2 * md.c1, 1.0 + chi ** 2 * md.c2])


def C_rod_chi(md, chi):
    """The analytic Gram matrix of the four rod embedding columns at chi."""
    out = np.zeros((4, 4))
    out[:2, :2] = C_bend(md, chi)
    out[2:, 2:] = md.C_stretch
    return out


def cross_embedding_columns(cross, chi, key, momentum_variant="eps"):
    """Embedding columns on the cross-section nodes for key bend, stretch or
    rod: the in-plane translations with out-of-line part -i chi x-hat
    (dropped for momentum_variant "zero"), then the torsion and extension."""
    x1, x2 = cross.nodes[:, 0], cross.nodes[:, 1]
    zero, one = np.zeros(cross.n_nodes), np.ones(cross.n_nodes)
    cols = []
    if key in ("bend", "rod"):
        tilt = (zero, zero) if momentum_variant == "zero" else (-1j * chi * x1, -1j * chi * x2)
        cols += [nodal_field(one, zero, tilt[0]), nodal_field(zero, one, tilt[1])]
    if key in ("stretch", "rod"):
        cols += [nodal_field(x2, -x1, zero), nodal_field(zero, zero, one)]
    return np.column_stack(cols)


def limit_resolvent_loop(forms, f, gamma, regime, use_xi=True, momentum_variant="eps"):
    """The leading-order line approximant, one longitudinal frequency at a
    time: momentum map, symbol solve t G^H A G + C, adjoint embedding."""
    cross = forms.mesh.cross
    md, Mw = compute_moments(cross), cross_mass(cross)
    A4 = hz.rod_tensor(forms).A_rod
    slots = {"bend": [0, 1], "stretch": [2, 3], "rod": [0, 1, 2, 3]}[regime]
    C = {"bend": np.eye(2), "stretch": md.C_stretch, "rod": md.C_rod}[regime]
    t = f.eps ** (-(gamma + 2.0))
    g = tr.xi_smoothing(f) if use_xi else f
    ghat = np.fft.fft(g.values, axis=0)
    thetas = 2.0 * np.pi * np.fft.fftfreq(f.S, d=f.L / f.S)
    out = np.zeros_like(ghat)
    for s in range(f.S):
        chi = f.eps * thetas[s]
        E = cross_embedding_columns(cross, chi, regime, momentum_variant)
        mom = E.conj().T @ (Mw @ ghat[s].reshape(-1, 3)).reshape(-1)
        G = np.diag(hz.g_scaling(chi)[slots])
        mhat = np.linalg.solve(t * G.conj().T @ A4[np.ix_(slots, slots)] @ G + C, mom)
        out[s] = E @ mhat
    return f.like(np.fft.ifft(out, axis=0))
