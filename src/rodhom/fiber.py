"""Fiber-level machinery: embeddings and momenta, spectral scaling studies,
the asymptotic approximation chains and their error reports.

Chains follow the four regimes (stretch, bend, general_chi2, general_chi4)
with a free positive prefactor t standing in for chi^-2 / chi^-4 (or
eps^-(gamma+2) in the eps-parametrised studies). Bend has its own recursion;
stretch, general_chi2 and general_chi4 run one recursion on the slots of the
regime, ending at chi^-2 or running on to the chi^-4 refinements. Every
corrector solve goes through the forms' quotient solver, one cached LU; the
solvability residual of each right-hand side against the rigid motions is
recorded, since each one is an exact identity of the discrete construction.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fem, homogenize as hz


# ---------------------------------------------------------------------------
# embeddings, momenta, Gram and effective matrices at one fiber


class FiberOps:
    """The operator set of one fiber chi: the embedding E(chi) = E0 + chi E1
    of the rod coefficients (see fem.embedding_blocks) and the blocks the
    chains build from it, as n_dof x 4 column blocks or 4x4 matrices in the
    rod slot order (m1, m2, m3, m4). A regime uses the columns of its slots.
    The blocks that need the cell basis or M are built on first use."""

    def __init__(self, forms, chi):
        self.forms = forms
        self.chi = chi
        self.g = hz.g_scaling(chi)
        self.E = forms.E0 + chi * forms.E1
        # E without the in-plane translations E0[:, :2]: the tilt chi E1 of the
        # bend columns, then the torsion and extension columns of E0
        self.S = np.hstack([chi * forms.E1[:, :2], forms.E0[:, 2:]])

    @cached_property
    def C(self):
        """The Gram matrix E^H M E."""
        return self.E.conj().T @ (self.forms.M @ self.E)

    @cached_property
    def A(self):
        """The Galerkin effective matrix G(chi)^H A_rod G(chi), through the
        exact chi-scaling of the J-basis cell solutions."""
        return hz.chi_tensor(self.forms, self.chi)

    @cached_property
    def B1(self):
        """The first-order corrector map m -> B1 m: the cell basis times G(chi)."""
        return hz.cell_basis(self.forms).T * self.g

    @cached_property
    def lam(self):
        """The loads int A Lambda_{chi,m} : conj(i chi X v) of the Lambda data,
        m -> lam m with lam = -i chi Lx G(chi)."""
        return -1j * self.chi * self.forms.Lx * self.g

    def test_fields(self, regime):
        """Test columns Ts, Tx and weights c of the coefficient projection,
        whose moments are c (Ts^T u + i chi Tx^T v): i chi B_x of the in-plane
        translations for bend, the Lambda data of the slots otherwise."""
        if regime == "bend":
            return (*self.forms.bend_tests, np.full(2, -1j * self.chi))
        s = _slots(regime)
        return self.forms.Ls[:, s], self.forms.Lx[:, s], np.conj(self.g[s])

    def embed_matrix(self, regime):
        return self.E[:, _slots(regime)]

    def embed(self, m, regime):
        return self.embed_matrix(regime) @ np.asarray(m, dtype=complex)

    def momentum(self, f, regime):
        """Force-and-momentum vector, the exact adjoint of embed."""
        E = self.embed_matrix(regime)
        return E.conj().T @ (self.forms.M @ np.asarray(f, dtype=complex))

    def gram(self, regime):
        s = _slots(regime)
        return self.C[s, s]


def _slots(regime):
    """The coefficient slots of a regime, as a column slice: the general
    regimes use all four (the rod slots)."""
    return hz._REGIME_SLOTS[regime if regime in ("stretch", "bend") else "rod"]


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

    # the bend columns of E, then the stretch columns
    E = ops.E
    qb = max(quotient(E[:, i]) for i in (0, 1))
    qs = max(quotient(E[:, i]) for i in (2, 3))

    # fields M-orthogonal to both embedded spaces
    rng = np.random.default_rng(11)
    qmin = np.inf
    for _ in range(5):
        v = rng.standard_normal(forms.mesh.n_dof) + 1j * rng.standard_normal(forms.mesh.n_dof)
        v = v - E @ np.linalg.solve(ops.C, E.conj().T @ (M @ v))
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


class _ChainBuilder:
    """The state of one chain: the fiber's blocks restricted to the regime's
    slots, the coupling t, and the chain being built."""

    def __init__(self, ops, t, regime, depth="full"):
        s = _slots(regime)
        self.ops, self.forms, self.chi, self.t = ops, ops.forms, ops.chi, t
        self.regime, self.depth = regime, depth
        self.E, self.S, self.B1, self.lam = (X[:, s] for X in (ops.E, ops.S, ops.B1, ops.lam))
        # the in-plane translations among the regime's slots (none for stretch)
        self.T = ops.forms.E0[:, :2][:, s]
        self.symbol = t * ops.A[s, s] + ops.C[s, s]
        self.test_s, self.test_x, self.test_c = ops.test_fields(regime)
        self.chain = Chain(regime=regime, chi=ops.chi, t=t)

    # elastic terms of the right-hand sides, as dual vectors (v -> ...)
    def shift(self, u):
        """int A sym-grad u : conj(i chi X v) + int A i chi X u : conj(sym-grad v),
        which is chi K_sx u."""
        return self.chi * (self.forms.K_sx @ u)

    def shift2(self, u):
        """int A i chi X u : conj(i chi X v), which is chi^2 K_xx u."""
        return self.chi ** 2 * (self.forms.K_xx @ u)

    def solve(self, name, b):
        # every right-hand side is kernel-orthogonal by construction
        u = self.forms.quotient.solve(b, t=self.t)
        self.chain.residuals.append((name, float(np.max(self.forms.kernel_residuals(b)))))
        self.chain.terms[name] = u
        return u

    def msolve(self, rhs):
        return np.linalg.solve(self.symbol, rhs)

    def coefficients(self, k, m):
        """Record the coefficient vector of refinement k and its terms E m and
        B1 m: m, u0, u1 for k = 0, then mk, u0_k, u1_k; returns B1 m."""
        tag = "_%d" % k if k else ""
        self.chain.m["m%d" % k if k else "m"] = m
        self.chain.terms["u0" + tag] = self.E @ m
        u1 = self.chain.terms["u1" + tag] = self.B1 @ m
        return u1

    def moments(self, u, v):
        """int A(sym-grad u + i chi X v) : conj(T) for each test field T of
        the coefficient projection."""
        return self.test_c * (self.test_s.T @ u + 1j * self.chi * (self.test_x.T @ v))

    def project_m(self, u, v):
        return -self.t * self.moments(u, v)


def build_chain(forms, chi, t, regime, f, scaling=None, depth="full"):
    """Run the corrector recursion of the given regime.

    f is the unscaled load; scaling defaults to the regime's natural tag
    (S_|chi| for bend and general_chi4, none otherwise) and the recursion is
    run on the scaled load. depth="correctors" stops once the first
    refinement coefficients (and with them the terms u1 and u0_1) are known,
    skipping the deeper solves. Returns a Chain with the computed terms,
    coefficient vectors, and the kernel residual of every corrector
    right-hand side.
    """
    cb = _ChainBuilder(FiberOps(forms, chi), t, regime, depth)
    tag = scaling if scaling is not None else _DEFAULT_SCALING[regime]
    g = apply_load_scaling(f, tag, chi)
    if regime == "bend":
        _chain_bend(cb, g)
    elif regime in ("stretch", "general_chi2", "general_chi4"):
        _chain_general(cb, g)
    else:
        raise ValueError(regime)
    return cb.chain


def _chain_bend(cb, g):
    t, M, S, T = cb.t, cb.forms.M, cb.S, cb.T
    plane = (g.reshape(-1, 3) * [1, 1, 0]).reshape(-1)   # the in-plane part of g

    m = cb.msolve(cb.ops.momentum(g, "bend"))
    u1 = cb.coefficients(0, m)
    b2 = -t * (cb.shift(u1) + cb.lam @ m) - M @ (S @ m) + M @ (g - plane)
    u2 = cb.solve("u2", b2)

    b3 = -t * (cb.shift(u2) + cb.shift2(u1)) - M @ (T @ m) + M @ plane
    u3 = cb.solve("u3", b3)

    m1 = cb.msolve(cb.project_m(u3, u2))
    u1_1 = cb.coefficients(1, m1)
    if cb.depth == "correctors":
        return

    b2_1 = -t * (cb.shift(u1_1) + cb.lam @ m1) - M @ (S @ m1)
    u2_1 = cb.solve("u2_1", b2_1)

    b3_1 = -t * (cb.shift(u2_1 + u3) + cb.shift2(u1_1 + u2)) - M @ (T @ m1)
    u3_1 = cb.solve("u3_1", b3_1)

    m2 = cb.msolve(cb.project_m(u3_1, u2_1 + u3))
    u1_2 = cb.coefficients(2, m2)

    b2_2 = -t * (cb.shift(u1_2) + cb.lam @ m2) - M @ (S @ m2)
    u2_2 = cb.solve("u2_2", b2_2)

    b3_2 = (-t * (cb.shift(u2_2 + u3_1) + cb.shift2(u1_2 + u2_1 + u3))
            - M @ (T @ m2) - M @ u1)
    cb.solve("u3_2", b3_2)


def _chain_general(cb, g):
    """The recursion of stretch, general_chi2 and general_chi4 on the slots
    of the regime. On the stretch slots T has no columns, so the terms of the
    in-plane translations vanish; every regime but general_chi4 ends at the
    chi^-2 order."""
    t, M, S, T = cb.t, cb.forms.M, cb.S, cb.T
    fbar = T.T @ (M @ g)   # int g1, int g2

    m = cb.msolve(cb.ops.momentum(g, cb.regime))
    u1 = cb.coefficients(0, m)
    b2 = -t * (cb.shift(u1) + cb.lam @ m) - M @ (S @ m) + M @ (g - T @ fbar)
    u2 = cb.solve("u2", b2)

    m1 = cb.msolve(cb.project_m(u2, u1))
    u1_1 = cb.coefficients(1, m1)
    if cb.depth == "correctors":
        return

    b2_1 = (-t * (cb.shift(u2 + u1_1) + cb.lam @ m1 + cb.shift2(u1))
            - M @ (S @ m1) - M @ (T @ m[:T.shape[1]]) + M @ (T @ fbar))
    if cb.regime != "general_chi4":
        cb.solve("u2_1", b2_1 - M @ u1)
        return
    u2_1 = cb.solve("u2_1", b2_1)

    m2 = cb.msolve(cb.project_m(u2_1, u1_1 + u2))
    u1_2 = cb.coefficients(2, m2)

    b2_2 = (-t * (cb.shift(u1_2 + u2_1) + cb.lam @ m2 + cb.shift2(u2 + u1_1))
            - M @ (T @ m1[:2]) - M @ (S @ m2))
    u2_2 = cb.solve("u2_2", b2_2)

    # third refinement: the next right-hand side is affine in the closing
    # coefficient vector, b0 + B m3, and m3 is fixed by requiring it to
    # annihilate the rigid motions. Z = kern B has rank 2: this order does not
    # fix the bend slots of m3, which span its null space, so take the
    # minimum-norm solution with a rank cut-off
    b0 = -t * (cb.shift(u2_2) + cb.shift2(u2_1 + u1_2)) - M @ (T @ m2[:2]) - M @ u1
    B = -t * (cb.chi * (cb.forms.K_sx @ cb.B1) + cb.lam) - M @ S
    kern = cb.forms.kernel_fields
    m3 = np.linalg.lstsq(kern @ B, -(kern @ b0), rcond=1e-10)[0]
    cb.coefficients(3, m3)
    cb.solve("u2_3", b0 + B @ m3)


def error_report(forms, chain, reference, componentwise=False):
    """L2/H1 errors of the order-0 and order-1 approximants, over all
    components or, componentwise, in-plane ('12') and out-of-line ('3')."""
    rows = []
    for order, approx in ((0, chain.order0()), (1, chain.order1())):
        e = reference - approx
        for c in ("12", "3") if componentwise else ("all",):
            rows.append({"chi": chain.chi, "component": c, "order": order,
                         "err_l2": np.sqrt(forms.norm_sq_l2(e, c)),
                         "err_h1": np.sqrt(forms.norm_sq_h1(e, c))})
    return rows


def fit_slope(xs, errs):
    """Least-squares slope of log(err) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(errs), 1)[0])
