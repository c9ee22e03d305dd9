"""Fiber-level machinery: embeddings and momenta, spectral scaling studies,
the asymptotic approximation chains and their error reports.

Chains follow the four regimes (stretch, bend, general_chi2, general_chi4)
with a free positive prefactor t standing in for chi^-2 / chi^-4 (or
eps^-(gamma+2) in the eps-parametrised studies); CHAIN_REGIMES holds the
facts of each. Bend has its own recursion; stretch, general_chi2 and
general_chi4 run one recursion on the slots of the regime, ending at chi^-2
(p = 2) or running on to the chi^-4 refinements (p = 4). A chain takes one
load or a stack of them, run as the columns of one block. Every corrector
solve goes through the forms' quotient solver, one cached LU; the
solvability residual of each right-hand side against the rigid motions is
recorded, since each one is an exact identity of the discrete construction.
"""

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import fem, homogenize as hz
from .checks import POSITIVE, is_integer, is_list_of, require


# ---------------------------------------------------------------------------
# embeddings, momenta, Gram and effective matrices at one fiber


class FiberOps:
    """The operator set of one fiber chi in one chain regime: the embedding
    E(chi) = E0 + chi E1 of the rod coefficients (see fem.embedding_blocks)
    on the regime's rod slots, and the blocks the chains build from it, as
    column blocks or square matrices over those slots. A regime not in
    CHAIN_REGIMES raises ValueError. The blocks that need the cell basis or
    M are built on first use."""

    def __init__(self, forms, chi, regime):
        self.spec = _chain_regime(regime)
        s = self.spec.slots
        self.forms, self.chi = forms, chi
        g = hz.g_scaling(chi)
        # each block is the slots' columns of its four-slot block, so it
        # rounds as it does on all four slots
        self.E = (forms.E0 + chi * forms.E1)[:, s]
        # E without the in-plane translations E0[:, :2]: the tilt chi E1 of the
        # bend columns, then the torsion and extension columns of E0
        self.S = np.hstack([chi * forms.E1[:, :2], forms.E0[:, 2:]])[:, s]
        # the in-plane translations among the slots (none for stretch)
        self.T = forms.E0[:, :2][:, s]
        # the loads int A Lambda_{chi,m} : conj(i chi X v) of the Lambda data,
        # m -> lam m with lam = -i chi Lx G(chi)
        self.lam = (-1j * chi * forms.Lx * g)[:, s]

    @cached_property
    def C(self):
        """The slots' block of the Gram matrix E^H M E of all four slots."""
        E = self.forms.E0 + self.chi * self.forms.E1
        s = self.spec.slots
        return (E.conj().T @ (self.forms.M @ E))[s, s]

    @cached_property
    def A(self):
        """The Galerkin effective matrix G(chi)^H A_rod G(chi), through the
        exact chi-scaling of the J-basis cell solutions."""
        s = self.spec.slots
        return hz.chi_tensor(self.forms, self.chi)[s, s]

    @cached_property
    def B1(self):
        """The first-order corrector map m -> B1 m: the cell basis times G(chi)."""
        g = hz.g_scaling(self.chi)
        return (hz.cell_basis(self.forms).T * g)[:, self.spec.slots]

    def momentum(self, f):
        """Force-and-momentum vector, the exact adjoint of E."""
        return self.E.conj().T @ (self.forms.M @ np.asarray(f, dtype=complex))


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
    ratios the spectral-gap statements are about, in grid order: one
    eigensolve per distinct chi on the forms' resolvent LU at t = chi^-4
    (see fem.smallest_eigs), each a task of fem.sweep on a pool thread while
    this thread factorises the next chi's LU, bitwise as if run in turn. A
    chi_grid that is not a list of positive numbers, which the ratios need,
    or a k that is not an integer >= 5, which the two pairs and lambda5
    need, raises ValueError before any solve."""
    require("chi_grid", chi_grid, "a nonempty list of positive numbers",
            lambda v: is_list_of(v, 1, POSITIVE[1]))
    require("k", k, "an integer >= 5", lambda v: is_integer(v) and v >= 5)
    # looked up per call, so that a wrapper set on fem sees each eigensolve
    eigs = fem.sweep(forms, chi_grid, lambda chi: fem.smallest_eigs(forms, chi, k)[0],
                     lambda chi: [(chi, chi ** -4)])
    return [{"chi": chi,
             "eigs": vals,
             "ratio_bend": vals[:2] / chi ** 4,
             "ratio_stretch": vals[2:4] / chi ** 2,
             "lambda5": vals[4]}
            for chi, vals in zip(chi_grid, eigs)]


def rayleigh_bounds(forms, chi):
    """Max Rayleigh quotients over the embedded bend/stretch test spaces."""
    K = forms.K(chi)
    M = forms.M

    def quotient(v):
        return float((np.vdot(v, K @ v) / np.vdot(v, M @ v)).real)

    qb = max(quotient(v) for v in FiberOps(forms, chi, "bend").E.T)
    qs = max(quotient(v) for v in FiberOps(forms, chi, "stretch").E.T)
    return {"bend_quotient": qb, "stretch_quotient": qs}


# ---------------------------------------------------------------------------
# approximation chains


class Chain:
    """One corrector chain on the operator set ops of a (fiber, regime), with
    coupling t, for one load or a stack of them. The recursion of the regime
    runs on the loads as the columns of one block, so each right-hand side,
    symbol solve and corrector solve serves every load at once. It fills in
    the coefficient vectors m (m, m1, m2, m3 as present) and the terms (u0,
    u1, ..., keyed by name), each shaped as the loads are, one row per load
    of a stack; and the absolute kernel residual of every corrector
    right-hand side, worst over the loads, as (step, residual).
    depth="correctors" stops the recursion once the first refinement
    coefficients are known."""

    def __init__(self, ops, t, depth="full"):
        self.ops, self.t, self.depth = ops, t, depth
        self.chi = ops.chi
        self.symbol = t * ops.A + ops.C
        self.m, self.terms, self.residuals = {}, {}, []

    def order0(self):
        return self.terms["u0"]

    def order1(self):
        return self.terms["u0"] + self.terms["u0_1"] + self.terms["u1"]

    # elastic terms of the right-hand sides, as dual vectors (v -> ...)
    def _shift(self, u):
        """int A sym-grad u : conj(i chi X v) + int A i chi X u : conj(sym-grad v),
        which is chi K_sx u."""
        return self.chi * (self.ops.forms.K_sx @ u)

    def _shift2(self, u):
        """int A i chi X u : conj(i chi X v), which is chi^2 K_xx u."""
        return self.chi ** 2 * (self.ops.forms.K_xx @ u)

    def _solve(self, name, b):
        # every right-hand side is kernel-orthogonal by construction
        u, residual = self.ops.forms.quotient.solve(b, t=self.t)
        self.residuals.append((name, residual))
        self.terms[name] = u.T
        return u

    def _msolve(self, rhs):
        return np.linalg.solve(self.symbol, rhs)

    def _coefficients(self, k, m):
        """Record the coefficient vector of refinement k and its terms E m and
        B1 m: m, u0, u1 for k = 0, then mk, u0_k, u1_k; returns B1 m."""
        tag = "_%d" % k if k else ""
        u1 = self.ops.B1 @ m
        self.m["m%d" % k if k else "m"] = m.T
        self.terms["u0" + tag] = (self.ops.E @ m).T
        self.terms["u1" + tag] = u1.T
        return u1

    def _project_m(self, u, v, tests):
        """-t times the moments int A(sym-grad u + i chi X v) : conj(T) over
        the recursion's test fields T, c (Ts^T u + i chi Tx^T v) for tests
        (Ts, Tx, c)."""
        Ts, Tx, c = tests
        moments = Ts.T @ u + 1j * self.chi * (Tx.T @ v)
        return -self.t * (c * moments.T).T   # c scales each test's row


def build_chain(forms, chi, t, regime, f, scaling=None, depth="full"):
    """Run the corrector recursion of the given regime.

    f is the unscaled load, one field (n_dof,) or a stack (k, n_dof) of
    them; scaling defaults to the regime's natural tag (ChainRegime.scaling)
    and the recursion is run on the scaled loads, a stack as the k columns
    of one block. depth="correctors" stops once the first refinement
    coefficients (and with them the terms u1 and u0_1) are known, skipping
    the deeper solves. Returns the Chain with the computed terms and
    coefficient vectors, shaped as f (one row per load of a stack), and the
    kernel residual of every corrector right-hand side. A regime not in
    CHAIN_REGIMES raises ValueError before anything is solved.
    """
    ch = Chain(FiberOps(forms, chi, regime), t, depth)
    spec = ch.ops.spec
    g = apply_load_scaling(f, spec.scaling if scaling is None else scaling, chi)
    spec.recursion(ch, g.T)   # the loads as columns
    return ch


def _chain_bend(ch, g):
    ops, t = ch.ops, ch.t
    M, S, T = ops.forms.M, ops.S, ops.T
    plane = (g.T * np.resize([1, 1, 0], len(g))).T   # the in-plane part of g
    tests = (*ops.forms.bend_tests, np.full(2, -1j * ch.chi))   # i chi B_x of T

    m = ch._msolve(ops.momentum(g))
    u1 = ch._coefficients(0, m)
    b2 = -t * (ch._shift(u1) + ops.lam @ m) - M @ (S @ m) + M @ (g - plane)
    u2 = ch._solve("u2", b2)

    b3 = -t * (ch._shift(u2) + ch._shift2(u1)) - M @ (T @ m) + M @ plane
    u3 = ch._solve("u3", b3)

    m1 = ch._msolve(ch._project_m(u3, u2, tests))
    u1_1 = ch._coefficients(1, m1)
    if ch.depth == "correctors":
        return

    b2_1 = -t * (ch._shift(u1_1) + ops.lam @ m1) - M @ (S @ m1)
    u2_1 = ch._solve("u2_1", b2_1)

    b3_1 = -t * (ch._shift(u2_1 + u3) + ch._shift2(u1_1 + u2)) - M @ (T @ m1)
    u3_1 = ch._solve("u3_1", b3_1)

    m2 = ch._msolve(ch._project_m(u3_1, u2_1 + u3, tests))
    u1_2 = ch._coefficients(2, m2)

    b2_2 = -t * (ch._shift(u1_2) + ops.lam @ m2) - M @ (S @ m2)
    u2_2 = ch._solve("u2_2", b2_2)

    b3_2 = (-t * (ch._shift(u2_2 + u3_1) + ch._shift2(u1_2 + u2_1 + u3))
            - M @ (T @ m2) - M @ u1)
    ch._solve("u3_2", b3_2)


def _chain_general(ch, g):
    """The recursion of stretch, general_chi2 and general_chi4 on the slots
    of the regime. On the stretch slots T has no columns, so the terms of the
    in-plane translations vanish; a chi^-2 coupling (p = 2) ends at the
    chi^-2 order."""
    ops, t = ch.ops, ch.t
    M, S, T = ops.forms.M, ops.S, ops.T
    fbar = T.T @ (M @ g)   # int g1, int g2
    s = ops.spec.slots   # the projection tests are the Lambda data of the slots
    tests = (ops.forms.Ls[:, s], ops.forms.Lx[:, s], np.conj(hz.g_scaling(ch.chi)[s]))

    m = ch._msolve(ops.momentum(g))
    u1 = ch._coefficients(0, m)
    b2 = -t * (ch._shift(u1) + ops.lam @ m) - M @ (S @ m) + M @ (g - T @ fbar)
    u2 = ch._solve("u2", b2)

    m1 = ch._msolve(ch._project_m(u2, u1, tests))
    u1_1 = ch._coefficients(1, m1)
    if ch.depth == "correctors":
        return

    b2_1 = (-t * (ch._shift(u2 + u1_1) + ops.lam @ m1 + ch._shift2(u1))
            - M @ (S @ m1) - M @ (T @ m[:T.shape[1]]) + M @ (T @ fbar))
    if ops.spec.power == 2:
        ch._solve("u2_1", b2_1 - M @ u1)
        return
    u2_1 = ch._solve("u2_1", b2_1)

    m2 = ch._msolve(ch._project_m(u2_1, u1_1 + u2, tests))
    u1_2 = ch._coefficients(2, m2)

    b2_2 = (-t * (ch._shift(u1_2 + u2_1) + ops.lam @ m2 + ch._shift2(u2 + u1_1))
            - M @ (T @ m1[:2]) - M @ (S @ m2))
    u2_2 = ch._solve("u2_2", b2_2)

    # third refinement: the next right-hand side is affine in the closing
    # coefficient vector, b0 + B m3, and m3 is fixed by requiring it to
    # annihilate the rigid motions. Z = kern B has rank 2: this order does not
    # fix the bend slots of m3, which span its null space, so take the
    # minimum-norm solution with a rank cut-off
    b0 = -t * (ch._shift(u2_2) + ch._shift2(u2_1 + u1_2)) - M @ (T @ m2[:2]) - M @ u1
    B = -t * (ch.chi * (ops.forms.K_sx @ ops.B1) + ops.lam) - M @ S
    kern = ops.forms.kernel_fields
    m3 = np.linalg.lstsq(kern @ B, -(kern @ b0), rcond=1e-10)[0]
    ch._coefficients(3, m3)
    ch._solve("u2_3", b0 + B @ m3)


class ChainRegime(NamedTuple):
    """The facts of a chain regime, from which the rest is worked out."""
    slots: slice          # its rod slots, of the order m1..m4
    power: int            # p of its coupling t = chi^-p
    parity: str | None    # the fem.parity_project part of its loads, if any
    recursion: Callable   # its corrector recursion, on the state of a chain

    @property
    def scaling(self):
        """The natural load scaling: S_|chi| exactly when p = 4."""
        return "s_abs_chi" if self.power == 4 else "none"


CHAIN_REGIMES = {
    "stretch": ChainRegime(slice(2, 4), 2, "stretch", _chain_general),
    "bend": ChainRegime(slice(0, 2), 4, "bend", _chain_bend),
    "general_chi2": ChainRegime(slice(0, 4), 2, None, _chain_general),
    "general_chi4": ChainRegime(slice(0, 4), 4, None, _chain_general),
}


def _chain_regime(name):
    """The facts of the chain regime called name; ValueError for any other."""
    require("regime", name, "one of " + ", ".join(CHAIN_REGIMES),
            lambda v: isinstance(v, str) and v in CHAIN_REGIMES)
    return CHAIN_REGIMES[name]


def error_report(forms, chain, reference):
    """L2/H1 errors of the order-0 and order-1 approximants: in-plane ('12')
    and out-of-line ('3') for a coupling power p = 4, else of all
    components. Both orders and all components come from one norm pass
    (fem.AssembledForms.norm_sq_parts)."""
    e = np.stack([reference - chain.order0(), reference - chain.order1()])
    l2, h1 = forms.norm_sq_parts(e, h1=True)
    rows = []
    for order in (0, 1):
        for c in ("12", "3") if chain.ops.spec.power == 4 else ("all",):
            s = fem.COMPONENTS[c]
            rows.append({"chi": chain.chi, "component": c, "order": order,
                         "err_l2": np.sqrt(np.sum(l2[order][..., s])),
                         "err_h1": np.sqrt(np.sum(h1[order][..., s]))})
    return rows


def fit_slope(xs, errs):
    """Least-squares slope of log(err) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(errs), 1)[0])
