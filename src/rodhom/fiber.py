"""Fiber-level machinery: embeddings and momenta, reference resolvents,
spectral scaling studies, the asymptotic approximation chains, and the
contour-quadrature validation of the t-substitution.

Chains follow the four regimes (stretch, bend, general_chi2, general_chi4)
with a free positive prefactor t standing in for chi^-2 / chi^-4 (or
eps^-(gamma+2) in the eps-parametrised studies). Every corrector solve goes
through one cached saddle factorisation; the solvability residual of each
right-hand side against the rigid motions is recorded, since each one is an
exact identity of the discrete construction.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import fem, homogenize as hz


class ContourTooClose(Exception):
    pass


# ---------------------------------------------------------------------------
# embeddings, momenta, Gram and effective matrices at one fiber


class FiberOps:
    """Per-(forms, chi) embeddings, momenta and effective matrices."""

    def __init__(self, forms, chi):
        self.forms = forms
        self.chi = chi
        self._embed = {}

    # -- embeddings -------------------------------------------------------

    def embed_matrix(self, regime):
        if regime not in self._embed:
            mesh = self.forms.mesh
            E = cross_embedding(mesh.cross, self.chi, _slot_key(regime))
            # tiled as rows of E.T: the columns stay column-major, the layout
            # the chains' products are rounded with
            self._embed[regime] = np.tile(E.T, mesh.n_y).T
        return self._embed[regime]

    def embed(self, m, regime):
        return self.embed_matrix(regime) @ np.asarray(m, dtype=complex)

    def momentum(self, f, regime):
        """Force-and-momentum vector, the exact adjoint of embed."""
        E = self.embed_matrix(regime)
        return E.conj().T @ (self.forms.M @ np.asarray(f, dtype=complex))

    def gram(self, regime):
        E = self.embed_matrix(regime)
        return E.conj().T @ (self.forms.M @ E)

    def a_chi(self, regime):
        """Discrete Galerkin effective matrix at this chi (via the exact
        chi-scaling of the J-basis cell solutions)."""
        return hz.chi_tensor(self.forms, self.chi, regime=_slot_key(regime), direct=False)


def _slot_key(regime):
    """The coefficient slots of a chain regime: the general regimes use all
    four (the rod slots)."""
    return regime if regime in ("stretch", "bend") else "rod"


def cross_embedding(cross, chi, key, momentum_variant="eps"):
    """Embedding columns on the cross-section nodes, one per coefficient
    slot of key (bend, stretch or rod): the in-plane translations with
    out-of-line part -i chi x-hat (dropped when momentum_variant is "zero"),
    then the torsion and the extension. Against the cross mass its conjugate
    transpose is the momentum map.
    """
    x1, x2 = cross.nodes[:, 0], cross.nodes[:, 1]
    zero, one = np.zeros(cross.n_nodes), np.ones(cross.n_nodes)
    cols = []
    if key in ("bend", "rod"):
        tilt = (zero, zero) if momentum_variant == "zero" else (-1j * chi * x1, -1j * chi * x2)
        cols += [(one, zero, tilt[0]), (zero, one, tilt[1])]
    if key in ("stretch", "rod"):
        cols += [(x2, -x1, zero), (zero, zero, one)]
    return np.array([np.column_stack(c).reshape(-1) for c in cols], dtype=complex).T


_DEFAULT_SCALING = {"stretch": "none", "general_chi2": "none",
                    "bend": "s_abs_chi", "general_chi4": "s_abs_chi"}


def apply_load_scaling(values, tag, chi=None, eps=None, delta=None):
    """Out-of-line load scalings: none, S_|chi|, S_{eps^delta}, S_inf. They
    act on the third component of any (..., 3 n_nodes) array, so on product
    vectors and on LineField values alike; returns a complex copy."""
    v = np.array(values, dtype=complex)
    w = v.reshape(v.shape[:-1] + (-1, 3))
    if tag == "s_abs_chi":
        w[..., 2] /= abs(chi)
    elif tag == "s_eps_delta":
        w[..., 2] *= eps ** (-delta)
    elif tag == "s_inf":
        w[..., 2] = 0.0
    elif tag != "none":
        raise ValueError(tag)
    return w.reshape(v.shape)


def reference_solve(forms, chi, t, f):
    """(t K(chi) + M) u = M f."""
    return fem.ResolventSolver(forms, chi, t).solve(f)


# ---------------------------------------------------------------------------
# spectral studies


def spectrum_scaling(forms, chi_grid, k=5):
    """lambda_1..lambda_k of (K(chi), M) over a chi grid, with the scaled
    ratios the spectral-gap statements are about."""
    rows = []
    for chi in chi_grid:
        vals, _ = fem.smallest_eigs(forms, chi, k)
        rows.append({
            "chi": chi,
            "eigs": vals,
            "ratio_bend": vals[:2] / chi ** 4,
            "ratio_stretch": vals[2:4] / chi ** 2,
            "lambda5": vals[4] if k >= 5 else None,
        })
    return rows


def rayleigh_bounds(forms, chi):
    """Max Rayleigh quotients over the embedded bend/stretch test spaces, and
    the min over a sample orthogonal to both."""
    ops = FiberOps(forms, chi)
    K = forms.K(chi)
    M = forms.M

    def quotient(v):
        return float((np.vdot(v, K @ v) / np.vdot(v, M @ v)).real)

    Eb = ops.embed_matrix("bend")
    Es = ops.embed_matrix("stretch")
    qb = max(quotient(Eb[:, i]) for i in range(2))
    qs = max(quotient(Es[:, i]) for i in range(2))

    # fields M-orthogonal to both embedded spaces
    B = np.hstack([Eb, Es])
    G = B.conj().T @ (M @ B)
    rng = np.random.default_rng(11)
    qmin = np.inf
    for _ in range(5):
        v = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
        v = v - B @ np.linalg.solve(G, B.conj().T @ (M @ v))
        qmin = min(qmin, quotient(v))
    return {"bend_quotient": qb, "stretch_quotient": qs, "orthogonal_min": qmin}


# ---------------------------------------------------------------------------
# approximation chains


@dataclass
class Chain:
    regime: str
    chi: float
    t: float
    m: dict = field(default_factory=dict)       # m, m1, m2, m3 as present
    terms: dict = field(default_factory=dict)   # u0, u1, ..., keyed by name
    residuals: list = field(default_factory=list)  # (step, absolute kernel residual)

    def order0(self):
        return self.terms["u0"]

    def order1(self):
        return self.terms["u0"] + self.terms["u0_1"] + self.terms["u1"]

    def full(self):
        return sum(self.terms.values())


def _interp(forms, comps):
    """Nodal field from per-node component arrays (a, b, c)."""
    n = forms.mesh.n_nodes
    out = np.zeros((n, 3), dtype=complex)
    out[:, 0], out[:, 1], out[:, 2] = comps
    return out.reshape(-1)


class _ChainBuilder:
    def __init__(self, forms, chi, t, regime, gram_mode="chi"):
        self.forms = forms
        self.chi = chi
        self.t = t
        self.regime = regime
        self.ops = FiberOps(forms, chi)
        self.gram_mode = gram_mode
        self.saddle = forms.saddle_solver()
        self.E = self.ops.embed_matrix(regime)
        self.A = self.ops.a_chi(regime)
        if gram_mode == "chi":
            self.C = self.ops.gram(regime)
        elif gram_mode == "identity":
            self.C = np.eye(self.E.shape[1])
        else:
            raise ValueError(gram_mode)
        key = _slot_key(regime)
        self.B1 = hz.corrector_map_B1(forms, key, chi)
        slots = hz._REGIME_SLOTS[key]
        g = hz.g_scaling(chi)[slots]
        # the load of the Lambda data, one column per regime slot (see lam)
        self.lam_cols = -1j * chi * forms.Lx[:, slots] * g
        # the test fields of the coefficient projection: i X_chi (d1, d2, 0),
        # i.e. i chi B_x of the in-plane translations, for bend, and the
        # Lambda data of the regime's slots otherwise
        if regime == "bend":
            kern = forms.kernel_fields[:2].T
            self.test_s, self.test_x = forms.P @ kern, forms.K_xx @ kern
            self.test_c = np.full(2, -1j * chi)
        else:
            self.test_s, self.test_x = forms.Ls[:, slots], forms.Lx[:, slots]
            self.test_c = np.conj(g)
        coords = forms.mesh.node_coords()
        self.x1, self.x2 = coords[:, 0], coords[:, 1]
        zeros = np.zeros(forms.mesh.n_nodes)
        self.zeros = zeros
        self.depth = "full"
        self.chain = Chain(regime=regime, chi=chi, t=t)

    # elastic terms of the right-hand sides, as dual vectors (v -> ...)
    def shift(self, u):
        """int A sym-grad u : conj(i chi X v) + int A i chi X u : conj(sym-grad v),
        which is chi K_sx u."""
        return self.chi * (self.forms.K_sx @ u)

    def shift2(self, u):
        """int A i chi X u : conj(i chi X v), which is chi^2 K_xx u."""
        return self.chi ** 2 * (self.forms.K_xx @ u)

    def lam(self, m):
        """int A Lambda_{chi,m} : conj(i chi X v) for the regime's coefficient
        vector m, which is -i chi Lx G(chi) m."""
        return self.lam_cols @ np.asarray(m, dtype=complex)

    def solve(self, name, b):
        # with the exact Gram matrix every right-hand side is kernel-orthogonal
        # by construction; the replacement variants are off by O(chi^2), so the
        # hard check applies only to the default mode
        u = self.saddle.solve(b, t=self.t, check=self.gram_mode == "chi")
        self.chain.residuals.append((name, float(np.max(self.forms.kernel_residuals(b)))))
        self.chain.terms[name] = u
        return u

    def msolve(self, rhs):
        return np.linalg.solve(self.t * self.A + self.C, rhs)

    def moments(self, u, v):
        """int A(sym-grad u + i chi X v) : conj(T) for each test field T of
        the coefficient projection."""
        return self.test_c * (self.test_s.T @ u + 1j * self.chi * (self.test_x.T @ v))

    def project_m(self, u, v):
        return -self.t * self.moments(u, v)

    def w_bend(self, m):
        """Nodal (0, 0, -i chi (m1 x1 + m2 x2))."""
        return _interp(self.forms, (self.zeros, self.zeros,
                                    -1j * self.chi * (m[0] * self.x1 + m[1] * self.x2)))

    def s_rod(self, m):
        """Nodal (m3 x2, -m3 x1, m4 - i chi (m1 x1 + m2 x2))."""
        return _interp(self.forms, (m[2] * self.x2, -m[2] * self.x1,
                                    m[3] - 1j * self.chi * (m[0] * self.x1 + m[1] * self.x2)))

    def const_hat(self, a, b):
        return _interp(self.forms, (np.full_like(self.x1, a, dtype=complex),
                                    np.full_like(self.x1, b, dtype=complex), self.zeros))


def build_chain(forms, chi, t, regime, f, gram_mode="chi", scaling=None, depth="full"):
    """Run the corrector recursion of the given regime.

    f is the unscaled load; scaling defaults to the regime's natural tag
    (S_|chi| for bend and general_chi4, none otherwise) and the recursion is
    run on the scaled load. depth="correctors" stops once the first
    refinement coefficients (and with them the terms u1 and u0_1) are known,
    skipping the deeper solves. Returns a Chain with the computed terms,
    coefficient vectors, and the kernel residual of every corrector
    right-hand side.
    """
    cb = _ChainBuilder(forms, chi, t, regime, gram_mode)
    cb.depth = depth
    tag = scaling if scaling is not None else _DEFAULT_SCALING[regime]
    g = apply_load_scaling(f, tag, chi)
    if regime == "stretch":
        _chain_stretch(cb, g)
    elif regime == "bend":
        _chain_bend(cb, g)
    elif regime in ("general_chi2", "general_chi4"):
        _chain_general(cb, g)
    else:
        raise ValueError(regime)
    return cb.chain


def _chain_stretch(cb, f):
    t, M = cb.t, cb.forms.M
    m = cb.msolve(cb.ops.momentum(f, "stretch"))
    cb.chain.m["m"] = m
    u0 = cb.E @ m
    cb.chain.terms["u0"] = u0
    u1 = cb.B1(m)
    cb.chain.terms["u1"] = u1

    b2 = -t * (cb.shift(u1) + cb.lam(m)) - M @ u0 + M @ f
    u2 = cb.solve("u2", b2)

    m1 = cb.msolve(cb.project_m(u2, u1))
    cb.chain.m["m1"] = m1
    u0_1 = cb.E @ m1
    cb.chain.terms["u0_1"] = u0_1
    u1_1 = cb.B1(m1)
    cb.chain.terms["u1_1"] = u1_1
    if cb.depth == "correctors":
        return

    b2_1 = (-t * (cb.shift(u2 + u1_1) + cb.lam(m1) + cb.shift2(u1))
            - M @ u0_1 - M @ u1)
    cb.solve("u2_1", b2_1)


def _chain_bend(cb, g):
    forms, t, M = cb.forms, cb.t, cb.forms.M
    n = forms.mesh.n_nodes
    gv = g.reshape(n, 3)

    m = cb.msolve(cb.ops.momentum(g, "bend"))
    cb.chain.m["m"] = m
    cb.chain.terms["u0"] = cb.E @ m
    u1 = cb.B1(m)
    cb.chain.terms["u1"] = u1

    b2 = (-t * (cb.shift(u1) + cb.lam(m))
          - M @ cb.w_bend(m)
          + M @ _interp(forms, (cb.zeros, cb.zeros, gv[:, 2])))
    u2 = cb.solve("u2", b2)

    b3 = (-t * (cb.shift(u2) + cb.shift2(u1))
          - M @ cb.const_hat(m[0], m[1])
          + M @ _interp(forms, (gv[:, 0], gv[:, 1], cb.zeros)))
    u3 = cb.solve("u3", b3)

    m1 = cb.msolve(cb.project_m(u3, u2))
    cb.chain.m["m1"] = m1
    cb.chain.terms["u0_1"] = cb.E @ m1
    u1_1 = cb.B1(m1)
    cb.chain.terms["u1_1"] = u1_1
    if cb.depth == "correctors":
        return

    b2_1 = -t * (cb.shift(u1_1) + cb.lam(m1)) - M @ cb.w_bend(m1)
    u2_1 = cb.solve("u2_1", b2_1)

    b3_1 = (-t * (cb.shift(u2_1 + u3) + cb.shift2(u1_1 + u2))
            - M @ cb.const_hat(m1[0], m1[1]))
    u3_1 = cb.solve("u3_1", b3_1)

    m2 = cb.msolve(cb.project_m(u3_1, u2_1 + u3))
    cb.chain.m["m2"] = m2
    cb.chain.terms["u0_2"] = cb.E @ m2
    u1_2 = cb.B1(m2)
    cb.chain.terms["u1_2"] = u1_2

    b2_2 = -t * (cb.shift(u1_2) + cb.lam(m2)) - M @ cb.w_bend(m2)
    u2_2 = cb.solve("u2_2", b2_2)

    b3_2 = (-t * (cb.shift(u2_2 + u3_1) + cb.shift2(u1_2 + u2_1 + u3))
            - M @ cb.const_hat(m2[0], m2[1]) - M @ cb.chain.terms["u1"])
    cb.solve("u3_2", b3_2)


def _chain_general(cb, g):
    forms, t, M = cb.forms, cb.t, cb.forms.M
    n = forms.mesh.n_nodes
    gv = g.reshape(n, 3)
    fbar = forms.kernel_fields[:2] @ (M @ g)   # int g1, int g2

    m = cb.msolve(cb.ops.momentum(g, cb.regime))
    cb.chain.m["m"] = m
    cb.chain.terms["u0"] = cb.E @ m
    u1 = cb.B1(m)
    cb.chain.terms["u1"] = u1

    fload = _interp(forms, (gv[:, 0] - fbar[0], gv[:, 1] - fbar[1], gv[:, 2]))
    b2 = -t * (cb.shift(u1) + cb.lam(m)) - M @ cb.s_rod(m) + M @ fload
    u2 = cb.solve("u2", b2)

    m1 = cb.msolve(cb.project_m(u2, u1))
    cb.chain.m["m1"] = m1
    cb.chain.terms["u0_1"] = cb.E @ m1
    u1_1 = cb.B1(m1)
    cb.chain.terms["u1_1"] = u1_1
    if cb.depth == "correctors":
        return

    if cb.regime == "general_chi2":
        b2_1 = (-t * (cb.shift(u2 + u1_1) + cb.lam(m1) + cb.shift2(u1))
                - M @ cb.s_rod(m1) - M @ cb.const_hat(m[0], m[1])
                + M @ cb.const_hat(fbar[0], fbar[1]) - M @ u1)
        cb.solve("u2_1", b2_1)
        return

    b2_1 = (-t * (cb.shift(u2 + u1_1) + cb.lam(m1) + cb.shift2(u1))
            - M @ cb.s_rod(m1) + M @ cb.const_hat(fbar[0], fbar[1])
            - M @ cb.const_hat(m[0], m[1]))
    u2_1 = cb.solve("u2_1", b2_1)

    m2 = cb.msolve(cb.project_m(u2_1, u1_1 + u2))
    cb.chain.m["m2"] = m2
    cb.chain.terms["u0_2"] = cb.E @ m2
    u1_2 = cb.B1(m2)
    cb.chain.terms["u1_2"] = u1_2

    b2_2 = (-t * (cb.shift(u1_2 + u2_1) + cb.lam(m2) + cb.shift2(u2 + u1_1))
            - M @ cb.const_hat(m1[0], m1[1]) - M @ cb.s_rod(m2))
    u2_2 = cb.solve("u2_2", b2_2)

    # third refinement: the closing coefficient vector is fixed by requiring
    # the next right-hand side to annihilate the rigid motions (affine solve)
    def b2_3(m3):
        return (-t * (cb.shift(cb.B1(m3) + u2_2) + cb.lam(m3) + cb.shift2(u2_1 + u1_2))
                - M @ cb.const_hat(m2[0], m2[1]) - M @ cb.s_rod(m3) - M @ u1)

    kern = forms.kernel_fields.astype(complex)
    b0 = b2_3(np.zeros(4))
    r0 = kern @ b0
    Z = np.zeros((4, 4), dtype=complex)
    for r in range(4):
        Z[:, r] = kern @ b2_3(np.eye(4)[r]) - r0
    m3 = np.linalg.solve(Z, -r0)
    cb.chain.m["m3"] = m3
    cb.chain.terms["u0_3"] = cb.E @ m3
    cb.chain.terms["u1_3"] = cb.B1(m3)
    cb.solve("u2_3", b2_3(m3))


def chain_reference(forms, chi, t, regime, f, scaling=None):
    """The resolvent field the chain approximates (with the regime's load
    scaling applied)."""
    tag = scaling if scaling is not None else _DEFAULT_SCALING[regime]
    return reference_solve(forms, chi, t, apply_load_scaling(f, tag, chi))


def error_report(forms, chain, reference, componentwise=False):
    """L2/H1 errors of the order-0 and order-1 approximants."""
    rows = []
    for order, approx in ((0, chain.order0()), (1, chain.order1())):
        e = reference - approx
        comps = [0, 1, 2] if componentwise else [None]
        for c in comps:
            rows.append({
                "chi": chain.chi,
                "order": order,
                "component": "all" if c is None else str(c + 1),
                "err_l2": np.sqrt(forms.norm_sq_l2(e, component=c)),
                "err_h1": np.sqrt(forms.norm_sq_h1(e, component=c)),
            })
    return rows


def fit_slope(xs, errs):
    """Least-squares slope of log(err) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# contour-quadrature validation of the t-substitution


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
    ops = FiberOps(forms, chi)
    A = ops.a_chi(regime)
    C = ops.gram(regime)
    g = apply_load_scaling(f, "none" if power == 2 else "s_abs_chi", chi)
    mom = ops.momentum(g, regime)

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
    B1 = hz.corrector_map_B1(forms, _slot_key(regime), chi)
    u1_direct = B1(m_direct)
    u1_contour = B1(m_contour)
    nrm = np.linalg.norm(u1_direct)
    out["corrector"] = float(np.linalg.norm(u1_contour - u1_direct) / nrm) if nrm > 0 else 0.0

    if regime != "stretch":
        return out

    # refined coefficient m^(1): build the affine pieces P-hat, Q, S-hat of
    # r(t) = t P m + Q m + S f and compare against the double-resolvent
    # contour formula
    cb = _ChainBuilder(forms, chi, t, "stretch")
    saddle = forms.saddle_solver()
    E = cb.E
    nb = E.shape[1]
    zero = np.zeros(forms.mesh.n_dof)

    def Shat(h):
        return -cb.moments(saddle.solve(forms.M @ h, check=False), zero)

    Phat = np.zeros((nb, nb), dtype=complex)
    for r in range(nb):
        er = np.eye(nb)[r]
        u1 = cb.B1(er)
        w = saddle.solve(cb.shift(u1) + cb.lam(er), check=False)
        Phat[:, r] = cb.moments(w, -u1)
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
