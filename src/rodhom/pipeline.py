"""End-to-end resolvent comparisons on the periodic line.

The reference operator is the Gelfand pullback of the fiberwise resolvents
(t K(chi) + M)^-1 M with t = eps^-(gamma+2). The limit operator applies, per
longitudinal frequency theta, the small Hermitian symbol t * G(eps
theta)^H A_rod G(eps theta) + C between the momentum map and its adjoint
embedding; first- and second-order corrections are pulled back fiberwise from
the approximation chains. Rate experiments fit log-log slopes of the worst
error over a seeded load family against the expected exponents.
"""

import csv
import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import fem, fiber, homogenize as hz, transform as tr
from .checks import POSITIVE, is_integer, is_list_of, is_number, require
from .geometry import cross_mass, is_centrally_symmetric
from .material import check_rod_material_symmetry

_CHAIN_REGIME = {"rod": "general_chi2", "stretch": "stretch", "bend": "bend"}
_COMPONENTS = {"rod": ("12", "3"), "stretch": ("all",), "bend": ("12", "3")}
REGIMES = ("stretch", "bend", "rod")
_ORDER_NORM = {0: "l2", 1: "h1", 2: "l2"}


# what each ExperimentConfig field must be
_NONNEGATIVE = ("a number >= 0", lambda v: is_number(v) and v >= 0)
_RULES = {
    "gamma": ("a number > -2", lambda v: is_number(v) and v > -2),
    "delta": _NONNEGATIVE,
    "length": POSITIVE,
    "n_grid": ("a list of at least 4 positive integers",
               lambda v: is_list_of(v, 4, lambda n: is_integer(n) and n > 0)),
    "regimes": ("a nonempty list drawn from %s" % ", ".join(REGIMES),
                lambda v: is_list_of(v, 1, lambda r: r in REGIMES)),
    "orders": ("a nonempty list drawn from 0, 1, 2",
               lambda v: is_list_of(v, 1, lambda o: is_integer(o) and 0 <= o <= 2)),
    "n_loads": ("an integer >= 1", lambda v: is_integer(v) and v >= 1),
    "seed": ("a nonnegative integer", lambda v: is_integer(v) and v >= 0),
    "momentum_variant": ("'eps' or 'zero'", lambda v: v in ("eps", "zero")),
    "s_inf": ("a bool", lambda v: isinstance(v, bool)),
    "slope_margin": _NONNEGATIVE,
}


@dataclass
class ExperimentConfig:
    """Knobs of a rate study. A field breaking its rule in _RULES raises
    ValueError "<field> must be <want>, not <value>". The rules: gamma > -2
    (positive definite symbols), delta >= 0 (bounded load scaling), length >
    0, n_grid >= 4 positive integers, regimes and orders nonempty selections
    of REGIMES and of 0, 1, 2, integers n_loads >= 1 and seed >= 0,
    momentum_variant "eps" or "zero", s_inf a bool, slope_margin >= 0."""
    gamma: float = 0.0
    delta: float = 0.0
    length: float = 6.0
    n_grid: tuple = (8, 12, 16, 24, 32)
    regimes: tuple = ("stretch", "bend", "rod")
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

    def flags(self):
        # xi=1: the band-limiter is always on; the reference tables key
        # their rows by the full flag string
        return "xi=1,momentum=%s,s_inf=%d,gamma=%g,delta=%g" % (
            self.momentum_variant, self.s_inf, self.gamma, self.delta)


def _limit_matrix(forms, chi, t, regime):
    """t * G(chi)^H A G(chi) + C restricted to the regime slots, with the
    chi-independent weight C of the limit operator (identity for bending);
    one matrix per entry of chi, stacked along the leading axes."""
    slots = hz._REGIME_SLOTS[regime]
    if regime == "bend":
        C = np.eye(2)
    elif regime == "stretch":
        C = forms.moments.C_stretch
    else:
        C = forms.moments.C_rod
    return t * hz.chi_tensor(forms, chi)[..., slots, slots] + C


def limit_resolvent(forms, f, gamma, regime, use_xi=True, momentum_variant="eps"):
    """Leading-order line approximant: per longitudinal frequency theta, the
    momentum map, the symbol solve and the adjoint embedding at chi = eps
    theta, all frequencies at once. With momentum_variant "zero" the
    embedding is E0 alone. E0 and E1 are the first slab of the forms' tiles."""
    n, slots = 3 * forms.mesh.cross.n_nodes, hz._REGIME_SLOTS[regime]
    E0, E1 = forms.E0[:n, slots], forms.E1[:n, slots]
    t = f.eps ** (-(gamma + 2.0))
    g = tr.xi_smoothing(f) if use_xi else f
    ghat = np.fft.fft(g.values, axis=0)
    chi = f.eps * (2.0 * np.pi * np.fft.fftfreq(f.S, d=f.L / f.S))
    tilt = np.zeros((f.S, 1)) if momentum_variant == "zero" else chi[:, None]
    Mg = (forms.cross_mass @ ghat.reshape(f.S, -1, 3)).reshape(f.S, -1)
    mom = Mg @ E0.conj() + tilt * (Mg @ E1.conj())
    mhat = np.linalg.solve(_limit_matrix(forms, chi, t, regime), mom[..., None])[..., 0]
    return f.like(np.fft.ifft(mhat @ E0.T + tilt * (mhat @ E1.T), axis=0))


def fiber_pullback_resolvent(forms, f, gamma, regime):
    """The same leading-order operator built fiberwise (momentum, symbol
    solve, embedding per Gelfand fiber); must agree with limit_resolvent to
    solver precision."""
    t = f.eps ** (-(gamma + 2.0))
    b = tr.gelfand(f)
    out = np.zeros_like(b.values)
    for k in range(len(b.chis)):
        chi = float(b.chis[k])
        ops = fiber.FiberOps(forms, chi)
        mom = ops.momentum(b.fiber(k), regime)
        mhat = np.linalg.solve(_limit_matrix(forms, chi, t, regime), mom)
        u = ops.embed(mhat, regime)
        out[k] = u.reshape(b.n_y, -1)
    return tr.gelfand_inverse(b.like(out))


def corrector_fields(forms, f, gamma, regime):
    """First- and second-order correction fields (the chain terms u1 and
    u0^(1), pulled back fiber by fiber)."""
    t = f.eps ** (-(gamma + 2.0))
    b = tr.gelfand(f)
    v1 = np.zeros_like(b.values)
    v2 = np.zeros_like(b.values)
    for k in range(len(b.chis)):
        chi = float(b.chis[k])
        if chi == 0.0:
            # both correction operators carry the coefficient scaling G(chi)
            # and vanish identically on the zero fiber
            continue
        ch = fiber.build_chain(forms, chi, t, _CHAIN_REGIME[regime],
                               b.fiber(k), scaling="none", depth="correctors")
        v1[k] = ch.terms["u1"].reshape(b.n_y, -1)
        v2[k] = ch.terms["u0_1"].reshape(b.n_y, -1)
    return (tr.gelfand_inverse(b.like(v1)), tr.gelfand_inverse(b.like(v2)))


class LineResolvent:
    """Reference resolvent on the line: Gelfand, fiberwise (t K(chi)+M)^-1 M,
    inverse Gelfand.

    K(-chi) = conj K(chi) and M is real, so fiber -chi is solved as
    conj((t K(chi) + M)^-1 M conj f) with the factorisation of fiber |chi|;
    the result is bitwise that of factorising K(-chi). One cached
    factorisation per |chi| serves N/2 + 1 of the N fibers, and the operator
    does not depend on the regime, so one instance serves every load at its
    eps.
    """

    def __init__(self, forms, eps, gamma):
        self.forms = forms
        self.eps = eps
        self.t = eps ** (-(gamma + 2.0))
        self._solvers = {}

    def _solve(self, chi, f):
        key = abs(chi)
        if key not in self._solvers:
            self._solvers[key] = fem.ResolventSolver(self.forms, key, self.t)
        solver = self._solvers[key]
        if chi < 0:
            return np.conj(solver.solve(np.conj(f)))
        return solver.solve(f)

    def apply(self, f):
        if abs(f.eps - self.eps) > 1e-14:
            raise tr.AlignmentError("field eps does not match the solver")
        b = tr.gelfand(f)
        out = np.zeros_like(b.values)
        for k in range(len(b.chis)):
            out[k] = self._solve(float(b.chis[k]), b.fiber(k)).reshape(b.n_y, -1)
        return tr.gelfand_inverse(b.like(out))


def line_inner(forms, a, b):
    """L2 inner product of two line fields in the consistent-mass metric
    (the one the fiberwise resolvents are exactly self-adjoint in): the sum
    of the fiber products, from one product of M with b's whole bundle."""
    ba, bb = tr.gelfand(a), tr.gelfand(b)
    K = len(bb.chis)
    MB = forms.M @ bb.values.reshape(K, -1).T
    return complex(np.vdot(ba.values.reshape(K, -1).T, MB) / bb.n_y)


def line_error_norm(forms, e, kind="l2", component=None):
    """L2 or eps-scaled H1 norm of a line field (component '12', '3', or
    'all'/None; see fem.COMPONENTS): the Gelfand transform is unitary, so it
    is the fiber norm of the whole bundle, each fiber at its own chi."""
    b = tr.gelfand(e)
    U = b.values.reshape(len(b.chis), -1)
    if kind == "l2":
        tot = forms.norm_sq_l2(U, component)
    else:
        tot = forms.norm_sq_h1(U, component, chi=b.chis, eps=e.eps)
    return float(np.sqrt(tot / b.n_y))


def make_loads(cross, n_y, N, eps, regime, n_loads=5, seed=0):
    """Seeded band-limited loads: random cross profiles on the low line
    modes |j| <= 2 plus short-scale modes at j = +-N (weight 0.5),
    parity-projected for the invariant regimes and unit-normalised.

    The random draws depend only on (seed, load index), so the same family
    is sampled consistently on every eps grid.
    """
    d = 3 * cross.n_nodes
    Mw = cross_mass(cross)
    sym, pairing = is_centrally_symmetric(cross)
    if regime in ("stretch", "bend") and not sym:
        raise ValueError("parity projection needs a centrally symmetric cross-section")
    S = N * n_y
    p = np.arange(S) // n_y
    y = -0.5 + (np.arange(S) % n_y) / n_y
    loads = []
    for i in range(n_loads):
        rng = np.random.default_rng([seed, i])
        vals = np.zeros((S, d), dtype=complex)
        for j in range(-2, 3):
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vals += np.outer(np.exp(2j * np.pi * j * (p + y) / N), c)
        for sign in (1, -1):
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vals += 0.5 * np.outer(np.exp(2j * np.pi * sign * y), c)
        if regime in ("stretch", "bend"):
            vals = fem.parity_project(vals.reshape(S, -1, 3), regime, pairing).reshape(S, d)
        lf = tr.LineField(vals, eps, n_y)
        nrm = np.sqrt(tr.line_norm_sq(lf, Mw))
        loads.append(lf.like(lf.values / nrm))
    return loads


def theory_slope(regime, component, order, gamma, delta=0.0, momentum_variant="eps"):
    """Expected decay exponent of the error in eps for the given regime,
    component selection and approximation order (0: L2, 1: H1 with the first
    correction, 2: L2 with both corrections)."""
    g2 = gamma + 2.0
    pref = min(g2 / 4.0 - delta, 0.0) if regime == "bend" else 0.0
    if order == 0:
        if regime == "stretch":
            return g2 / 2.0
        if regime == "rod":
            return g2 / 4.0 if component == "12" else g2 / 2.0
        if component == "12":
            return g2 / 4.0 + pref
        rate = g2 / 4.0 if momentum_variant == "zero" else g2 / 2.0
        return rate + pref
    if order == 1:
        if regime == "stretch":
            return min(gamma + 1.0, g2 / 2.0)
        if regime == "rod":
            return g2 / 4.0 if component == "12" else g2 / 2.0
        if component == "12":
            return min(g2 / 4.0, gamma / 2.0) + pref
        return min(g2 / 2.0, (3.0 * gamma + 2.0) / 4.0) + pref
    if order == 2:
        if regime == "stretch":
            return g2
        if regime == "rod":
            return g2 / 2.0 if component == "12" else 3.0 * g2 / 4.0
        if component == "12":
            return g2 / 2.0 + pref
        return 3.0 * g2 / 4.0 + pref
    raise ValueError(order)


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
        out = []
        for r in self.rows:
            for eps, err in zip(r["eps"], r["errs"]):
                out.append({"regime": r["regime"], "component": r["component"],
                            "order": r["order"], "flags": r["flags"],
                            "eps": eps, "err": err,
                            "slope_fit": r["slope_fit"],
                            "slope_theory": r["slope_theory"],
                            "pass": int(r["passed"])})
        return out

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


def _scaled_load(cfg, g):
    tag = "s_inf" if cfg.s_inf else "s_eps_delta" if cfg.delta != 0.0 else "none"
    return g.like(fiber.apply_load_scaling(g.values, tag, eps=g.eps, delta=cfg.delta))


def _require_rod_symmetry(forms, regimes):
    """The stretch and bend regimes rest on the parity split, which holds
    only for materials with rod symmetry in every layer."""
    if ({"stretch", "bend"} & set(regimes)
            and not all(check_rod_material_symmetry(t) for _, _, t in forms.profile.layers)):
        raise ValueError("the stretch and bend regimes need rod material symmetry "
                         "in every layer (see check_rod_material_symmetry)")


def rate_experiment(cfg, forms):
    """Worst-case error over the load family at every eps, per regime,
    order and component, with fitted against expected slopes.

    The out-of-line load scaling (s_eps_delta / s_inf) applies to the
    bending regime only, matching the statements being tested.

    The reference resolvent does not depend on the regime, so eps is the
    outer loop: one LineResolvent per eps serves the loads of every regime,
    and only one eps holds live factorisations at a time.
    """
    _require_rod_symmetry(forms, cfg.regimes)
    n_y = forms.mesh.n_y
    cross = forms.mesh.cross
    eps_list = [cfg.length / N for N in cfg.n_grid]
    errs = [{(o, c): [] for o in cfg.orders for c in _COMPONENTS[regime]}
            for regime in cfg.regimes]
    for N, eps in zip(cfg.n_grid, eps_list):
        R = LineResolvent(forms, eps, cfg.gamma)
        for regime, regime_errs in zip(cfg.regimes, errs):
            comps = _COMPONENTS[regime]
            loads = make_loads(cross, n_y, N, eps, regime,
                               n_loads=cfg.n_loads, seed=cfg.seed)
            worst = {key: 0.0 for key in regime_errs}
            for f in loads:
                g = _scaled_load(cfg, f) if regime == "bend" else f
                ref = R.apply(g)
                a0 = limit_resolvent(forms, g, cfg.gamma, regime,
                                     momentum_variant=cfg.momentum_variant)
                if any(o >= 1 for o in cfg.orders):
                    u1, u01 = corrector_fields(forms, g, cfg.gamma, regime)
                for o in cfg.orders:
                    approx = a0.values.copy()
                    if o >= 1:
                        approx = approx + u1.values
                    if o >= 2:
                        approx = approx + u01.values
                    e = g.like(ref.values - approx)
                    for c in comps:
                        worst[(o, c)] = max(worst[(o, c)], line_error_norm(
                            forms, e, kind=_ORDER_NORM[o], component=c))
            for key, seq in regime_errs.items():
                seq.append(worst[key])
    return RateReport(rows=[
        _rate_row(regime, c, o, cfg.flags(), eps_list, seq,
                  theory_slope(regime, c, o, cfg.gamma, cfg.delta, cfg.momentum_variant),
                  cfg.slope_margin)
        for regime, regime_errs in zip(cfg.regimes, errs)
        for (o, c), seq in sorted(regime_errs.items())])


CHI_SWEEP = (0.4, 0.283, 0.2, 0.141, 0.1, 0.0707, 0.05)

FIBER_THRESHOLDS = {
    ("stretch", "all", 0): 0.9, ("stretch", "all", 1): 1.8,
    ("bend", "12", 0): 0.9, ("bend", "3", 0): 1.8,
    ("bend", "12", 1): 1.8, ("bend", "3", 1): 2.6,
    ("general_chi2", "all", 0): 0.9, ("general_chi2", "all", 1): 1.8,
    ("general_chi4", "12", 0): 0.9, ("general_chi4", "3", 0): 1.8,
    ("general_chi4", "12", 1): 1.8, ("general_chi4", "3", 1): 2.6,
}


def fiber_rate_study(forms, loads, chi_grid=CHI_SWEEP):
    """Chi-sweep of the chain approximants at one fiber family, with the
    natural coupling t = chi^-2 (torsion/extension regimes) or chi^-4.

    loads maps each regime to a product-mesh load field. Returns per-chi
    error rows (L2 and H1) and fitted H1 slopes against the regime
    thresholds.

    chi is the outer loop: each chi factorises (t K(chi) + M) once per
    coupling, shared by the regimes with the same power. Rows come out
    regime by regime, in the order of loads.
    """
    _require_rod_symmetry(forms, loads)
    rows = {regime: [] for regime in loads}
    errs = {k: [] for k in FIBER_THRESHOLDS}
    for chi in chi_grid:
        solvers = {}
        for regime, f in loads.items():
            split = regime in ("bend", "general_chi4")
            t = chi ** (-4 if split else -2)
            if t not in solvers:
                solvers[t] = fem.ResolventSolver(forms, chi, t)
            ch = fiber.build_chain(forms, chi, t, regime, f)
            ref = solvers[t].solve(fiber.apply_load_scaling(
                f, fiber._DEFAULT_SCALING[regime], chi))
            for row in fiber.error_report(forms, ch, ref, componentwise=split):
                rows[regime].append({"regime": regime, **row})
                errs[(regime, row["component"], row["order"])].append(row["err_h1"])
    slopes = []
    for (regime, tag, order), seq in errs.items():
        if not seq:
            continue
        slope = fiber.fit_slope(chi_grid, seq)
        thr = FIBER_THRESHOLDS[(regime, tag, order)]
        slopes.append({"regime": regime, "component": tag, "order": order,
                       "slope_fit": slope, "slope_threshold": thr,
                       "passed": bool(slope >= thr)})
    return {"rows": [r for regime in loads for r in rows[regime]],
            "slopes": slopes}


def xi_ablation(cfg, forms):
    """Size of the smoothing step: distance between the leading approximants
    with and without the band-limiter, expected to vanish at rate gamma+2."""
    n_y = forms.mesh.n_y
    cross = forms.mesh.cross
    eps_list, diffs = [], []
    for N in cfg.n_grid:
        eps = cfg.length / N
        eps_list.append(eps)
        loads = make_loads(cross, n_y, N, eps, "rod",
                           n_loads=cfg.n_loads, seed=cfg.seed)
        worst = 0.0
        for f in loads:
            a1 = limit_resolvent(forms, f, cfg.gamma, "rod", use_xi=True)
            a0 = limit_resolvent(forms, f, cfg.gamma, "rod", use_xi=False)
            worst = max(worst, line_error_norm(
                forms, f.like(a1.values - a0.values), kind="l2"))
        diffs.append(worst)
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
    m0_cfg = dataclasses.replace(cfg, regimes=("bend",), orders=(0,),
                                 momentum_variant="zero",
                                 length=2 * cfg.length)
    for row in rate_experiment(m0_cfg, forms).rows:
        row["flags"] = "ablation=momentum_zero," + row["flags"]
        report.rows.append(row)
    sinf_cfg = dataclasses.replace(cfg, regimes=("bend",), orders=(0,),
                                   s_inf=True)
    for row in rate_experiment(sinf_cfg, forms).rows:
        row["flags"] = "ablation=s_inf," + row["flags"]
        report.rows.append(row)
    return report
