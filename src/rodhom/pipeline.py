"""End-to-end resolvent comparisons on the periodic line, in the Gelfand
picture: every operator compared acts fiber by fiber on (..., N, n_dof)
stacks of fibers. The reference is (t K(chi) + M)^-1 M with t =
eps^-(gamma+2); the leading approximant applies the Hermitian symbol
t G(chi)^H A_rod G(chi) + C between the momentum map E(chi)^H M and the
embedding E(chi); the corrections are the chain terms u1 and u0^(1) of each
fiber. Rate experiments work on the fibers from the start: every mode of
the seeded load family is a plane wave, whose Gelfand transform is known in
closed form, so the loads are drawn on the fibers they reach (|j| <=
LOAD_BAND; the others hold none of them) without a line field or an FFT.
Where the forms split, the reference and the general corrector recursion
commute with the parity projections, so each eps solves and runs the
general chain once, on the unprojected family, and every regime's loads,
reference and (stretch, rod) correctors are normalised parity parts of
those; bend keeps its own chain. They fit log-log slopes of the worst error
over the family, measured on those fibers in one norm pass per (eps,
regime, order), against the expected exponents; so does the band-limiter
ablation, in closed form. make_loads and limit_resolvent, the line forms of
the family and of the band-limited approximant, serve validate's checks.
"""

import csv
import dataclasses
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import fem, fiber, homogenize as hz, transform as tr
from .checks import POSITIVE, is_distinct, is_increasing, is_integer, is_list_of, is_number, require
from .geometry import cross_mass, is_centrally_symmetric


class LineRegime(NamedTuple):
    chain: str          # the chain regime of its fibers, whose facts it takes
    rates: dict         # (component, order) -> terms (a, b) of its exponent, see theory_slope
    zero_momentum: dict  # the rates momentum_variant "zero" replaces

    @property
    def facts(self):
        return fiber.CHAIN_REGIMES[self.chain]

    @property
    def out_of_line(self):   # its loads take s_eps_delta / s_inf, the line form of S_|chi|
        return self.facts.scaling == "s_abs_chi"

    @property
    def components(self):   # the error components it reports
        return tuple(dict.fromkeys(c for c, _ in self.rates))


LINE_REGIMES = {
    "stretch": LineRegime("stretch", {
        ("all", 0): ((0.5, 0),), ("all", 1): ((1, -1), (0.5, 0)), ("all", 2): ((1, 0),)}, {}),
    "bend": LineRegime("bend", {
        ("12", 0): ((0.25, 0),), ("12", 1): ((0.25, 0), (0.5, -1)), ("12", 2): ((0.5, 0),),
        ("3", 0): ((0.5, 0),), ("3", 1): ((0.5, 0), (0.75, -1)), ("3", 2): ((0.75, 0),)},
        {("3", 0): ((0.25, 0),)}),
    "rod": LineRegime("general_chi2", {
        ("12", 0): ((0.25, 0),), ("12", 1): ((0.25, 0),), ("12", 2): ((0.5, 0),),
        ("3", 0): ((0.5, 0),), ("3", 1): ((0.5, 0),), ("3", 2): ((0.75, 0),)}, {}),
}
REGIMES = tuple(LINE_REGIMES)
# the line regime without a parity, whose loads are the unprojected family:
# rate_experiment derives the others from its loads, reference and chain
_FAMILY = next(r for r, line in LINE_REGIMES.items() if not line.facts.parity)
_ORDER_NORM = {0: "l2", 1: "h1", 2: "l2"}

# the load family fills the line modes |j| <= LOAD_BAND and the short-scale
# modes j = +-N at weight 0.5 (_load_draws); mode j is a plane wave that lies
# on the one fiber k = j mod N, chi = 2 pi j / N folded into [-pi, pi), so the
# family reaches the fibers |k| <= LOAD_BAND (the short-scale modes land on
# chi = 0) and none of the others
LOAD_BAND = 2


# what each ExperimentConfig field must be
_NONNEGATIVE = ("a number >= 0", lambda v: is_number(v) and v >= 0)
_RULES = {
    "gamma": ("a number > -2", lambda v: is_number(v) and v > -2),  # definite symbols
    "delta": _NONNEGATIVE,   # a bounded load scaling
    "length": POSITIVE,
    "n_grid": ("a strictly increasing list of at least 4 positive integers",
               lambda v: is_list_of(v, 4, lambda n: is_integer(n) and n > 0) and is_increasing(v)),
    "regimes": ("a nonempty list of distinct names from %s" % ", ".join(REGIMES),
                lambda v: is_list_of(v, 1, lambda r: r in REGIMES) and is_distinct(v)),
    "orders": ("a nonempty list of distinct orders from 0, 1, 2",
               lambda v: is_list_of(v, 1, lambda o: is_integer(o) and 0 <= o <= 2)
               and is_distinct(v)),
    "n_loads": ("an integer >= 1", lambda v: is_integer(v) and v >= 1),
    "seed": ("a nonnegative integer", lambda v: is_integer(v) and v >= 0),
    "momentum_variant": ("'eps' or 'zero'", lambda v: v in ("eps", "zero")),
    "s_inf": ("a bool", lambda v: isinstance(v, bool)),
    "slope_margin": _NONNEGATIVE,
}


@dataclass
class ExperimentConfig:
    """Knobs of a rate study. A field breaking its rule in _RULES raises
    ValueError "<field> must be <want>, not <value>"; so do s_inf and
    momentum_variant "zero" with a regime that is not out_of_line."""
    gamma: float = 0.0
    delta: float = 0.0
    length: float = 6.0
    n_grid: tuple = (8, 12, 16, 24, 32)
    regimes: tuple = REGIMES
    orders: tuple = (0,)
    n_loads: int = 5
    seed: int = 0
    momentum_variant: str = "eps"   # "zero" drops the derivative part (bend)
    s_inf: bool = False             # zero out-of-line force components (bend)
    slope_margin: float = 0.1
    floor: ClassVar[float] = 1e-10  # a row whose last error is below it is inconclusive

    def __post_init__(self):
        for name, (want, ok) in _RULES.items():
            require(name, getattr(self, name), want, ok)
        # rate_experiment scales only out_of_line loads, and only those have zero_momentum rates
        scaled = [r for r in REGIMES if LINE_REGIMES[r].out_of_line]
        for name, plain in (("s_inf", False), ("momentum_variant", "eps")):
            require(name, getattr(self, name), "%r unless the regimes are among %s" % (
                plain, ", ".join(scaled)), lambda v: v == plain or set(self.regimes) <= set(scaled))

    def flags(self):
        # xi=1: the band-limiter is always on; the reference tables key
        # their rows by the full flag string
        return "xi=1,momentum=%s,s_inf=%d,gamma=%g,delta=%g" % (
            self.momentum_variant, self.s_inf, self.gamma, self.delta)


def _line_regime(name):
    """The line regime called name; ValueError for any other."""
    require("regime", name, "one of " + ", ".join(LINE_REGIMES),
            lambda v: isinstance(v, str) and v in LINE_REGIMES)
    return LINE_REGIMES[name]


def _limit_matrix(forms, chi, t, regime):
    """t * G(chi)^H A G(chi) + C restricted to the regime slots, with the
    chi-independent weight C of the limit operator, the slots' block of the
    moment weight C_rod (the identity for bending); one matrix per entry of
    chi, stacked along the leading axes."""
    slots = _line_regime(regime).facts.slots
    C = forms.moments.C_rod[slots, slots]
    return t * hz.chi_tensor(forms, chi)[..., slots, slots] + C


def limit_resolvent(forms, f, gamma, regime):
    """Leading-order line approximant of the band-limited load
    (transform.xi_smoothing): per longitudinal frequency theta, the momentum
    map, the symbol solve and the adjoint embedding at chi = eps theta, all
    frequencies at once. E0 and E1 are the first slab of the forms' tiles."""
    n, slots = 3 * forms.mesh.cross.n_nodes, _line_regime(regime).facts.slots
    E0, E1 = forms.E0[:n, slots], forms.E1[:n, slots]
    t = f.eps ** (-(gamma + 2.0))
    ghat = np.fft.fft(tr.xi_smoothing(f).values, axis=0)
    chi = f.eps * (2.0 * np.pi * np.fft.fftfreq(f.S, d=f.L / f.S))
    Mg = (forms.cross_mass @ ghat.reshape(f.S, -1, 3)).reshape(f.S, -1)
    mom = Mg @ E0.conj() + chi[:, None] * (Mg @ E1.conj())
    mhat = np.linalg.solve(_limit_matrix(forms, chi, t, regime), mom[..., None])[..., 0]
    return f.like(np.fft.ifft(mhat @ E0.T + chi[:, None] * (mhat @ E1.T), axis=0))


def _require_aligned(chis, F):
    """AlignmentError unless chis holds one chi per fiber of F (..., N, n_dof)."""
    if np.ndim(F) < 2 or np.shape(chis) != np.shape(F)[-2:-1]:
        raise tr.AlignmentError("chis %s for fibers %s" % (np.shape(chis), np.shape(F)))


def fiber_limit(forms, chis, t, regime, F, momentum_variant="eps"):
    """Leading-order approximant E(chi) S(chi)^-1 E(chi)^H M f on every fiber
    f of F (..., N, n_dof), fiber k at chis[k], with S the symbol of
    _limit_matrix: one stacked symbol solve, no fiber loop. With
    momentum_variant "zero" the embedding is E0 alone."""
    s = _line_regime(regime).facts.slots
    _require_aligned(chis, F)
    E0, E1 = forms.E0[:, s], forms.E1[:, s]
    tilt = (np.zeros_like(chis) if momentum_variant == "zero" else chis)[:, None]
    # E^H M f = (M conj E)^T f, as M is real symmetric
    mom = F @ (forms.M @ E0) + tilt * (F @ (forms.M @ E1.conj()))
    m = np.linalg.solve(_limit_matrix(forms, chis, t, regime), mom[..., None])[..., 0]
    return m @ E0.T + tilt * (m @ E1.T)


def fiber_pullback_resolvent(forms, f, gamma, regime):
    """The leading-order operator built fiberwise: the Gelfand transform,
    fiber_limit on every fiber, the inverse transform. It must agree with
    limit_resolvent to solver precision."""
    b = tr.gelfand(f)
    u = fiber_limit(forms, b.chis, f.eps ** (-(gamma + 2.0)), regime, b.fibers())
    return tr.gelfand_inverse(b.like(u))


def _by_abs_chi(chis, F, apply, n_out=1):
    """n_out fiber operators, each acting on fiber -chi as conj(its action at
    chi on conj f), on every fiber of F (..., N, n_dof), fiber k at chis[k]:
    apply(|chi|, rows) returns their n_out images of the rows, the +chi
    fibers and the conjugated -chi fibers of every leading index."""
    _require_aligned(chis, F)
    outs = [np.empty_like(F) for _ in range(n_out)]
    for key in np.unique(np.abs(chis)):
        k = np.flatnonzero(np.abs(chis) == key)
        flip = (chis[k] < 0)[:, None]
        cols = np.where(flip, F[..., k, :].conj(), F[..., k, :])
        for out, X in zip(outs, apply(float(key), cols.reshape(-1, cols.shape[-1]))):
            X = X.reshape(cols.shape)
            out[..., k, :] = np.where(flip, X.conj(), X)
    return outs


def fiber_correctors(forms, chis, t, regime, F):
    """First- and second-order correction fields, the chain terms u1 and
    u0^(1), on every fiber of F (..., N, n_dof), fiber k at chis[k]: one
    corrector chain per nonzero |chi| for the fibers of every leading index.
    The chain of -chi on f is conj(chain of chi on conj f), since E1, K_sx
    and G(chi) turn into their conjugates and the quotient LU is real."""
    chain = _line_regime(regime).chain

    def correctors(chi, rows):
        if chi == 0.0:
            # both correction operators carry the coefficient scaling G(chi)
            # and vanish identically on the zero fiber
            return np.zeros_like(rows), np.zeros_like(rows)
        ch = fiber.build_chain(forms, chi, t, chain, rows, scaling="none", depth="correctors")
        return ch.terms["u1"], ch.terms["u0_1"]
    return tuple(_by_abs_chi(chis, F, correctors, n_out=2))


class LineResolvent:
    """Reference resolvent (t K(chi) + M)^-1 M on the fibers of the line at
    one eps.

    K(-chi) = conj K(chi) and M is real, so fiber -chi is solved as
    conj((t K(chi) + M)^-1 M conj f) with the factorisation of fiber |chi|,
    in the same multi-column solve as fiber +chi (for one field, bitwise the
    per-fiber factorisations; a stack rounds as the wider solve does). One
    cached factorisation per |chi| serves N/2 + 1 of the N fibers. The
    operator does not depend on the regime, and where the forms split it
    commutes with the parity projections, so one solve per |chi| serves the
    family: the rate study solves the unprojected loads of its eps (and
    their out-of-line scaling), stacked along the leading axes, and takes
    every regime's reference as a parity part of that solve.
    The factorisations are its own, not the forms' (forms.resolvent), so a
    rate study holds those of one eps at a time; they are the same
    fem.ResolventSolver, on the class blocks of forms.parity_basis where the
    forms split.
    """

    def __init__(self, forms, eps, gamma):
        self.forms = forms
        self.eps = eps
        self.t = eps ** (-(gamma + 2.0))
        self._solvers = {}

    def _solve_rows(self, chi, rows):
        if chi not in self._solvers:
            self._solvers[chi] = fem.ResolventSolver(self.forms, chi, self.t)
        return (self._solvers[chi].solve(rows.T).T,)

    def solve(self, chis, F):
        """(t K(chi) + M)^-1 M f on every fiber f of F (..., N, n_dof), fiber
        k at chis[k]: one solve per |chi|, whose columns are the +chi fibers
        and the conjugated -chi fibers of every leading index."""
        return _by_abs_chi(chis, F, self._solve_rows)[0]

    def apply(self, f):
        """The resolvent of a line field: Gelfand, solve, inverse Gelfand."""
        if abs(f.eps - self.eps) > 1e-14:
            raise tr.AlignmentError("field eps does not match the solver")
        b = tr.gelfand(f)
        return tr.gelfand_inverse(b.like(self.solve(b.chis, b.fibers())))


def line_inner(forms, a, b):
    """L2 inner product of two line fields in the consistent-mass metric
    (the one the fiberwise resolvents are exactly self-adjoint in): the sum
    of the fiber products, from one product of M with b's whole bundle."""
    ba, bb = tr.gelfand(a), tr.gelfand(b)
    return complex(np.vdot(ba.fibers().T, forms.M @ bb.fibers().T) / bb.n_y)


def _load_error_norms(forms, E, chis, eps, kind):
    """The L2 or eps-scaled H1 line norms of the fields given by their
    fibers E (..., fibers, n_dof), fiber k at chis[k], one per leading
    index, for each component label of fem.COMPONENTS: one norm pass
    (fem.AssembledForms.norm_sq_parts) for all of them."""
    l2, h1 = forms.norm_sq_parts(E, kind != "l2", chis, eps)
    parts = (l2 if kind == "l2" else h1).sum(axis=-2) / forms.mesh.n_y
    return {c: np.sqrt(np.sum(parts[..., s], axis=-1)) for c, s in fem.COMPONENTS.items()}


def _load_draws(d, n_loads, seed):
    """The random cross profiles c_j (d complex entries each) of every load
    of the family, as an (n_loads, 2 LOAD_BAND + 3, d) array in the order
    they are drawn: the line modes j = -LOAD_BAND .. LOAD_BAND, then the
    short-scale modes j = N and -N. They depend only on (seed, load index),
    so the same family is sampled consistently on every eps grid."""
    draws = []
    for i in range(n_loads):
        rng = np.random.default_rng([seed, i])
        draws.append([rng.standard_normal(d) + 1j * rng.standard_normal(d)
                      for _ in range(2 * LOAD_BAND + 3)])
    return np.array(draws).reshape(n_loads, 2 * LOAD_BAND + 3, d)


def make_loads(cross, n_y, N, eps, regime, n_loads=5, seed=0):
    """Seeded band-limited loads as line fields: random cross profiles on
    the low line modes |j| <= LOAD_BAND plus short-scale modes at j = +-N
    (weight 0.5), drawn by _load_draws, parity-projected for the regimes
    with a parity and unit-normalised. rate_experiment takes the same
    family on its fibers (_load_fibers).
    """
    parity = _line_regime(regime).facts.parity
    d = 3 * cross.n_nodes
    Mw = cross_mass(cross)
    sym, pairing = is_centrally_symmetric(cross)
    if parity and not sym:
        raise ValueError("parity projection needs a centrally symmetric cross-section")
    S = N * n_y
    p = np.arange(S) // n_y
    y = -0.5 + (np.arange(S) % n_y) / n_y
    loads = []
    for draws in _load_draws(d, n_loads, seed):
        vals = np.zeros((S, d), dtype=complex)
        for j, c in zip(range(-LOAD_BAND, LOAD_BAND + 1), draws):
            vals += np.outer(np.exp(2j * np.pi * j * (p + y) / N), c)
        for sign, c in zip((1, -1), draws[2 * LOAD_BAND + 1:]):
            vals += 0.5 * np.outer(np.exp(2j * np.pi * sign * y), c)
        if parity:
            vals = fem.parity_project(vals.reshape(S, -1, 3), parity, pairing).reshape(S, d)
        lf = tr.LineField(vals, eps, n_y)
        nrm = np.sqrt(tr.line_norm_sq(lf, Mw))
        loads.append(lf.like(lf.values / nrm))
    return loads


def _line_modes(N):
    """The line modes j of the profiles of _load_draws, in their order."""
    return np.array([*range(-LOAD_BAND, LOAD_BAND + 1), N, -N])


def _place_modes(forms, N, eps, C):
    """The chis of the fibers |k| <= LOAD_BAND (FFT order) and the fibers
    (n_loads, fibers, n_dof) there of sum_j w_j e^{2 pi i j x3 / (N eps)} c_j
    for profiles C (n_loads, modes of _line_modes, d), w_j = 0.5 at j = +-N,
    else 1; no other fiber is reached. Mode j is sqrt(N eps) e^{i (2 pi j / N
    - chi_k) y} c_j on fiber k = j mod N; the phase is 1 unless j aliases
    (N < 2 LOAD_BAND + 1, and j = +-N on chi = 0)."""
    n_y = forms.mesh.n_y
    k = np.rint(np.fft.fftfreq(N) * N).astype(int)   # the signed fiber indices
    reached = np.flatnonzero(np.abs(k) <= LOAD_BAND)
    place = np.empty(N, dtype=int)
    place[reached] = np.arange(len(reached))
    j = _line_modes(N)
    weight = np.sqrt(N * eps) * np.array([1.0] * (2 * LOAD_BAND + 1) + [0.5, 0.5])
    # 2 pi j / N - chi_k = 2 pi (j - k) / N, an exact 0 where j does not alias
    y = -0.5 + np.arange(n_y) / n_y
    phase = weight[:, None] * np.exp(2j * np.pi * np.outer(j - k[j % N], y) / N)
    F = np.zeros((len(C), len(reached), n_y, C.shape[-1]), dtype=complex)
    for m, fiber_k in enumerate(j % N):
        F[:, place[fiber_k]] += phase[m, :, None] * C[:, m, None, :]
    return tr.chi_values(N)[reached], F.reshape(len(C), len(reached), -1)


def _load_fibers(forms, N, eps, n_loads, seed):
    """_place_modes of the draws: the chis and the family's loads G0 of
    make_loads, unprojected and unit-normalised in the line norm."""
    chis, F = _place_modes(forms, N, eps, _load_draws(3 * forms.mesh.cross.n_nodes, n_loads, seed))
    return chis, F / np.sqrt(_line_norm_sq(forms, F))[:, None, None]


def _line_norm_sq(forms, X):
    """The squared line norms of the loads given by the fibers X (n_loads,
    fibers, n_dof) they reach: the sums of the fiber norms in the
    cross-section mass."""
    V = X.reshape(X.shape[:2] + (forms.mesh.n_y, -1, 3))
    return np.einsum("lkqic,lkqic->l", V.conj(), forms.cross_mass @ V).real / forms.mesh.n_y


def _takes_scaling(cfg, regime):
    """Whether the loads of a line regime take an out-of-line scaling
    (_scaled_load) other than the identity: out_of_line regimes, under s_inf
    or delta > 0."""
    return LINE_REGIMES[regime].out_of_line and (cfg.s_inf or cfg.delta != 0.0)


def _family_loads(cfg, G0, eps):
    """The family's loads G0 of _load_fibers keyed by _takes_scaling: G0
    where some regime of cfg takes no scaling, S(G0) where some takes one."""
    return {scaled: _scaled_load(cfg, G0, eps) if scaled else G0
            for scaled in dict.fromkeys(_takes_scaling(cfg, r) for r in cfg.regimes)}


def _regime_part(forms, G0, regime):
    """The step X -> k_r P_r X from the family to a line regime, for the
    family's loads G0 of _load_fibers. Applied to the family's loads under
    the regime's scaling S_r (_family_loads), it gives the regime's loads
    k_r P_r S_r G0: P_r is its parity part, and k_r = 1 / |P_r G0| per load,
    the ratio of the regime's line normaliser to the family's; without a
    parity the step is the identity. Where the forms split, the reference
    (t K(chi) + M)^-1 M and the general corrector recursion commute with
    P_r, so the step also takes their action on the family to their action
    on the regime's loads; X may stack such arrays along leading axes."""
    parity = LINE_REGIMES[regime].facts.parity
    if not parity:
        return lambda X: X

    def project(X):
        V = X.reshape(X.shape[:-1] + (forms.mesh.n_y, -1, 3))
        return fem.parity_project(V, parity, forms.pairing).reshape(X.shape)
    k = 1.0 / np.sqrt(_line_norm_sq(forms, project(G0)))
    return lambda X: k[:, None, None] * project(X)


def theory_slope(regime, component, order, gamma, delta=0.0, momentum_variant="eps"):
    """Expected decay exponent of the error in eps for the given regime,
    component selection and approximation order (0: L2, 1: H1 with the first
    correction, 2: L2 with both corrections): the least a (gamma + 2) + b over
    the terms of its row in LINE_REGIMES, plus min((gamma + 2) / 4 - delta, 0)
    for an out_of_line regime. ValueError for a pair the regime does not report."""
    line = _line_regime(regime)
    rates = {**line.rates, **line.zero_momentum} if momentum_variant == "zero" else line.rates
    require("(component, order) of %s" % regime, (component, order),
            "one of " + ", ".join(map(repr, rates)), lambda k: k in rates)
    g2 = gamma + 2.0
    pref = min(0.25 * g2 - delta, 0.0) if line.out_of_line else 0.0
    return min(a * g2 + b for a, b in rates[(component, order)]) + pref


def write_csv(path, rows):
    """Write a list of same-keyed dicts as CSV, header from the first row."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)


@dataclass
class RateReport:
    rows: list

    def all_pass(self):
        return all(r["passed"] for r in self.rows)

    def csv_rows(self):
        return [{"regime": r["regime"], "component": r["component"], "order": r["order"],
                 "flags": r["flags"], "eps": eps, "err": err, "slope_fit": r["slope_fit"],
                 "slope_theory": r["slope_theory"], "pass": int(r["passed"])}
                for r in self.rows for eps, err in zip(r["eps"], r["errs"])]

    def write_csv(self, path):
        write_csv(path, self.csv_rows())


def _rate_row(regime, component, order, flags, eps_list, errs, theory, margin):
    """One report row: the slope fitted to errs against the expected one.
    It passes when its last error is above the floor and the slope is at
    least theory - margin."""
    slope = fiber.fit_slope(eps_list, np.maximum(errs, 1e-300))
    conclusive = errs[-1] > ExperimentConfig.floor
    return {"regime": regime, "component": component, "order": order,
            "flags": flags, "eps": eps_list, "errs": errs,
            "slope_fit": slope, "slope_theory": theory,
            "conclusive": conclusive,
            "passed": bool(conclusive and slope >= theory - margin)}


def _scaled_load(cfg, values, eps):
    """The out-of-line scaling of cfg (s_inf, s_eps_delta or none) of load
    values at eps, fibers or line field values alike."""
    tag = "s_inf" if cfg.s_inf else "s_eps_delta" if cfg.delta != 0.0 else "none"
    return fiber.apply_load_scaling(values, tag, eps=eps, delta=cfg.delta)


def _require_parity_split(forms, split):
    """The regimes in split, those to run that have a parity, rest on the
    parity split of the forms: the cell's symmetry group (forms.symmetry,
    see fem.symmetry_group) must hold the central inversion."""
    if split and forms.pairing is None:
        raise ValueError("the regimes that split by parity (%s) need a cell invariant under "
                         "the central inversion: rod material symmetry in every layer and a "
                         "centrally symmetric cross-section" % ", ".join(split))


def rate_experiment(cfg, forms):
    """Worst-case error over the load family at every eps, per regime,
    order and component, with fitted against expected slopes.

    The out-of-line load scaling (s_eps_delta / s_inf) applies to out_of_line regimes only.

    The study works on the fibers the family reaches, |j| <= LOAD_BAND:
    each eps draws the unprojected, normalised family G0 there in closed
    form once (_load_fibers); the other fibers hold none of the loads, so
    the errors are norms over the reached fibers. eps is the outer loop.
    Each regime's loads and reference, and the correctors of the regimes
    whose chain runs the general recursion on unscaled loads (stretch,
    rod), are k_r P_r of the family's (_regime_part): one LineResolvent
    solve per reached |chi| for G0, and for S(G0) where a regime takes a
    scaling, and one fiber_correctors on G0 in the unprojected regime's
    chain. Bend, whose recursion differs, runs its own chain. The
    approximants are fiber_limit on the regime's loads for order 0, plus
    u1 for order 1 and u0^(1) for order 2; the errors of all loads of an
    (eps, regime, order) take one norm pass (_load_error_norms).
    """
    _require_parity_split(forms, [r for r in cfg.regimes if LINE_REGIMES[r].facts.parity])
    eps_list = [cfg.length / N for N in cfg.n_grid]
    errs = [{(o, c): [] for o in cfg.orders for c in LINE_REGIMES[regime].components}
            for regime in cfg.regimes]
    derived = {r for r in cfg.regimes if not _takes_scaling(cfg, r)
               and LINE_REGIMES[r].facts.recursion is fiber._chain_general}
    for N, eps in zip(cfg.n_grid, eps_list):
        R = LineResolvent(forms, eps, cfg.gamma)
        chis, G0 = _load_fibers(forms, N, eps, cfg.n_loads, cfg.seed)
        family = _family_loads(cfg, G0, eps)
        refs = dict(zip(family, R.solve(chis, np.array(list(family.values())))))
        if max(cfg.orders) >= 1 and derived:
            general = np.array(fiber_correctors(forms, chis, R.t, _FAMILY, G0))
        for regime, regime_errs in zip(cfg.regimes, errs):
            part, scaled = _regime_part(forms, G0, regime), _takes_scaling(cfg, regime)
            Fr = part(family[scaled])
            approx = [fiber_limit(forms, chis, R.t, regime, Fr, cfg.momentum_variant)]
            if max(cfg.orders) >= 1:
                u1, u01 = (part(general) if regime in derived
                           else fiber_correctors(forms, chis, R.t, regime, Fr))
                approx += [approx[0] + u1, approx[0] + u1 + u01]
            ref = part(refs[scaled])
            for o in cfg.orders:
                norms = _load_error_norms(forms, ref - approx[o], chis, eps, _ORDER_NORM[o])
                for c in LINE_REGIMES[regime].components:
                    regime_errs[(o, c)].append(float(np.max(norms[c])))
    return RateReport(rows=[
        _rate_row(regime, c, o, cfg.flags(), eps_list, seq,
                  theory_slope(regime, c, o, cfg.gamma, cfg.delta, cfg.momentum_variant),
                  cfg.slope_margin)
        for regime, regime_errs in zip(cfg.regimes, errs)
        for (o, c), seq in sorted(regime_errs.items())])


CHI_SWEEP = (0.4, 0.283, 0.2, 0.141, 0.1, 0.0707, 0.05)
# what a chi grid must be: chi^-p and the log-log slope fit need chi > 0, two distinct
CHI_GRID = ("a list of positive numbers, at least 2 of them distinct",
            lambda v: is_list_of(v, 2, POSITIVE[1]) and len(set(v)) >= 2)

# the H1 slope floors of fiber_rate_study by (component, order) for each
# coupling power p; a chain regime takes those of its p
_FIBER_FLOORS = {2: {("all", 0): 0.9, ("all", 1): 1.8},
                 4: {("12", 0): 0.9, ("3", 0): 1.8, ("12", 1): 1.8, ("3", 1): 2.6}}
FIBER_THRESHOLDS = {(regime, c, order): floor for regime, spec in fiber.CHAIN_REGIMES.items()
                    for (c, order), floor in _FIBER_FLOORS[spec.power].items()}


def fiber_rate_study(forms, loads, chi_grid=CHI_SWEEP):
    """Chi-sweep of the chain approximants at one fiber family, with each
    regime's natural coupling t = chi^-p and load scaling.

    loads maps each chain regime to a product-mesh load field; another name,
    or a chi_grid breaking CHI_GRID, raises ValueError before any solve.
    Returns per-chi rows of fiber.error_report and fitted H1 slopes.

    Each chi is one task of fem.sweep, on a pool thread: it solves the
    scaled loads of every regime with power p as the columns of one solve
    on the forms' LU of (t K(chi) + M), shared with spectrum_scaling at
    p = 4, then runs each regime's chain. The rows are bitwise those of the
    steps in turn, in grid order, regime-major, in the order of loads.
    """
    require("chi_grid", chi_grid, *CHI_GRID)
    specs = {regime: fiber._chain_regime(regime) for regime in loads}
    _require_parity_split(forms, [r for r, spec in specs.items() if spec.parity])
    powers = list(dict.fromkeys(spec.power for spec in specs.values()))

    def one_chi(chi):
        refs = {}
        for power in powers:
            group = [r for r, spec in specs.items() if spec.power == power]
            G = np.stack([fiber.apply_load_scaling(loads[r], specs[r].scaling, chi)
                          for r in group], axis=1)
            refs.update(zip(group, forms.resolvent(chi, chi ** -power).solve(G).T))
        return {r: fiber.error_report(forms, fiber.build_chain(
            forms, chi, chi ** -specs[r].power, r, f), refs[r]) for r, f in loads.items()}

    rows = {regime: [] for regime in loads}
    errs = {k: [] for k in FIBER_THRESHOLDS if k[0] in loads}
    for reports in fem.sweep(forms, chi_grid, one_chi,
                             lambda chi: [(chi, chi ** -power) for power in powers]):
        for regime, report in reports.items():
            for row in report:
                rows[regime].append({"regime": regime, **row})
                errs[(regime, row["component"], row["order"])].append(row["err_h1"])
    slopes = []
    for (regime, tag, order), seq in errs.items():
        slope = fiber.fit_slope(chi_grid, seq)
        thr = FIBER_THRESHOLDS[(regime, tag, order)]
        slopes.append({"regime": regime, "component": tag, "order": order,
                       "slope_fit": slope, "slope_threshold": thr,
                       "passed": bool(slope >= thr)})
    return {"rows": [r for regime in loads for r in rows[regime]],
            "slopes": slopes}


def xi_ablation(cfg, forms):
    """Size of the smoothing step: the worst line L2 distance over the family
    between the leading approximants (rod) of its band-limited and plain
    loads, expected to vanish at rate gamma+2. In closed form: on the line's
    S = N n_y slabs, mode j is sampled at the frequency (j + S/2) mod S - S/2;
    the limiter drops the modes whose sampled j lies outside [-N/2, N/2)
    (+-N, and band modes where N < 5), and the line form maps each, a plane
    wave, to the plane wave of profile fiber_limit at chi_j = 2 pi j / N on
    its y-constant tile, which _place_modes places."""
    draws = _load_draws(3 * forms.mesh.cross.n_nodes, cfg.n_loads, cfg.seed)
    eps_list, diffs = [cfg.length / N for N in cfg.n_grid], []
    for N, eps in zip(cfg.n_grid, eps_list):
        S = N * forms.mesh.n_y
        j = (_line_modes(N) + S // 2) % S - S // 2
        A = fiber_limit(forms, 2.0 * np.pi * j / N, eps ** (-(cfg.gamma + 2.0)), "rod",
                        np.tile(draws, forms.mesh.n_y))[..., :draws.shape[-1]]
        images = np.where(((j < -N / 2) | (j >= N / 2))[:, None], A, 0.0)
        chis, G = _place_modes(forms, N, eps, draws)
        err = _load_error_norms(forms, _place_modes(forms, N, eps, images)[1], chis, eps, "l2")
        diffs.append(float(np.max(err["all"] / np.sqrt(_line_norm_sq(forms, G)))))
    return RateReport(rows=[_rate_row("rod", "all", 0, "ablation=xi," + cfg.flags(), eps_list,
                                      diffs, cfg.gamma + 2.0, 2 * cfg.slope_margin)])


def ablation_experiment(cfg, forms):
    """Variant studies: dropping the band-limiter, replacing the bending
    momenta by their derivative-free version, and zeroing out-of-line
    forces."""
    report = xi_ablation(cfg, forms)
    # the derivative-free momenta lose accuracy through the near-zero
    # fibers; doubling the box keeps the whole grid below the chi^4
    # suppression crossover so the weaker rate is actually visible
    variants = {"momentum_zero": dict(momentum_variant="zero", length=2 * cfg.length),
                "s_inf": dict(s_inf=True)}
    for name, change in variants.items():
        variant = dataclasses.replace(cfg, regimes=("bend",), orders=(0,), **change)
        for row in rate_experiment(variant, forms).rows:
            row["flags"] = "ablation=%s,%s" % (name, row["flags"])
            report.rows.append(row)
    return report
