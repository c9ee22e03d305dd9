"""Second constructions of the line/fiber transforms: the quasiperiodic
(Floquet) picture, the fiberwise Parseval norm, the line error norm and inner
product fiber by fiber, the spectral longitudinal derivative, the fiber-mean
form of the band-limiter, the real-domain momenta and the rate study in the
line picture. Oracles for the Gelfand transform, the line norms, the
band-limiter and the Gelfand-picture rate study of the library.
Validation-only; not part of the library."""

import numpy as np

from rodhom import fem, fiber, pipeline as pl
from rodhom.geometry import cross_mass
from rodhom.transform import FiberBundle, LineField, _twiddle, chi_values, gelfand, gelfand_inverse

from support_embedding import limit_resolvent_loop

# each line regime's chain regime and the error components it reports,
# written out here so that the rate-study oracle checks the library's table
CHAIN_REGIME = {"stretch": "stretch", "bend": "bend", "rod": "general_chi2"}
COMPONENTS = {"stretch": ("all",), "bend": ("12", "3"), "rod": ("12", "3")}


def floquet(lf):
    """Quasiperiodic-picture transform: plain DFT over periods."""
    v = lf.values.reshape(lf.N, lf.n_y, -1)
    hat = np.fft.fft(v, axis=0) * np.sqrt(lf.eps / lf.N)
    return FiberBundle(hat, chi_values(lf.N), lf.eps)


def floquet_inverse(b):
    N = len(b.chis)
    f = np.fft.ifft(b.values, axis=0) * np.sqrt(N / b.eps)
    return LineField(f.reshape(N * b.n_y, -1), b.eps, b.n_y)


def to_floquet(b):
    """Multiply fiber k of a Gelfand bundle by e^{i chi_k y}: the Floquet
    bundle of the same line field."""
    vals = b.values / _twiddle(b.chis, b.y_nodes())[:, :, None]
    return FiberBundle(vals, b.chis, b.eps)


def bundle_norm_sq(b, M_omega):
    """Squared L2 norm of a bundle, fiber by fiber: the Parseval partner of
    transform.line_norm_sq."""
    v = b.values.reshape(len(b.chis), b.n_y, -1, 3)
    return float((1.0 / b.n_y)
                 * np.einsum("kqic,ij,kqjc->", v.conj(), M_omega, v).real)


def line_inner_loop(forms, a, b):
    """pipeline.line_inner as a sum of fiber products, one fiber at a time."""
    ba, bb = gelfand(a), gelfand(b)
    out = 0.0 + 0.0j
    for k in range(len(ba.chis)):
        out += np.vdot(ba.fibers()[k], forms.M @ bb.fibers()[k])
    return complex(out / ba.n_y)


def line_error_norm_loop(forms, e, kind="l2", component=None):
    """The L2 or eps-scaled H1 line norm of the components labelled
    component of a line field, as a sum of single-fiber norms, one fiber at
    a time, each H1 norm at its fiber's chi."""
    b = gelfand(e)
    tot = 0.0
    for k in range(len(b.chis)):
        u = b.fibers()[k]
        if kind == "l2":
            tot += forms.norm_sq_l2(u, component)
        else:
            h1 = forms.norm_sq_parts(u, True, float(b.chis[k]), e.eps)[1]
            tot += np.sum(h1[fem.COMPONENTS[component]])
    return float(np.sqrt(tot / b.n_y))


def spectral_d3(lf):
    """Longitudinal derivative, spectral over the box."""
    freq = 2j * np.pi * np.fft.fftfreq(lf.S, d=lf.L / lf.S)
    out = np.fft.ifft(freq[:, None] * np.fft.fft(lf.values, axis=0), axis=0)
    return lf.like(out)


def _fiber_dy(values, n_y):
    """Spectral d/dy on the periodic fiber profiles (axis 1)."""
    freq = 2j * np.pi * np.fft.fftfreq(n_y) * n_y
    return np.fft.ifft(freq[None, :, None] * np.fft.fft(values, axis=1), axis=1)


def gelfand_derivative_check(lf):
    """Max residual of (transform of d3 f) minus eps^-1 (d_y + i chi) applied
    fiberwise; zero for loads band-limited under the fiber y-resolution."""
    lhs = gelfand(spectral_d3(lf)).values
    b = gelfand(lf)
    rhs = (_fiber_dy(b.values, b.n_y)
           + 1j * b.chis[:, None, None] * b.values) / lf.eps
    return float(np.max(np.abs(lhs - rhs)))


def fiber_mean(lf):
    """The band-limiter as the fiberwise y-mean of the Gelfand bundle."""
    b = gelfand(lf)
    mean = np.mean(b.values, axis=1, keepdims=True)
    return gelfand_inverse(b.like(np.broadcast_to(mean, b.values.shape).copy()))


def _cross_functionals(cross):
    Mw = cross_mass(cross)
    one = Mw @ np.ones(cross.n_nodes)
    wx1 = Mw @ cross.nodes[:, 0]
    wx2 = Mw @ cross.nodes[:, 1]
    return one, wx1, wx2


def momentum_real(lf, which, cross):
    """Slab-wise force-and-momentum moments on the line.

    stretch: (int x2 f1 - x1 f2, int f3); bend: int(f-hat + eps (d3 f3) x-hat)
    with the longitudinal derivative taken spectrally; rod: bend then stretch.
    """
    one, wx1, wx2 = _cross_functionals(cross)
    v = lf.values.reshape(lf.S, -1, 3)
    stretch = np.column_stack([v[:, :, 0] @ wx2 - v[:, :, 1] @ wx1,
                               v[:, :, 2] @ one])
    if which == "stretch":
        return stretch
    d3 = spectral_d3(lf).values.reshape(lf.S, -1, 3)[:, :, 2]
    bend = np.column_stack([v[:, :, 0] @ one + lf.eps * (d3 @ wx1),
                            v[:, :, 1] @ one + lf.eps * (d3 @ wx2)])
    if which == "bend":
        return bend
    if which == "rod":
        return np.hstack([bend, stretch])
    raise ValueError(which)


def corrector_fields_loop(forms, f, t, regime):
    """The first- and second-order correction fields of a line load: the
    chain terms u1 and u0^(1) of each fiber, pulled back to the line."""
    b = gelfand(f)
    v1, v2 = np.zeros_like(b.values), np.zeros_like(b.values)
    for k, chi in enumerate(b.chis):
        if chi == 0.0:
            continue
        ch = fiber.build_chain(forms, float(chi), t, CHAIN_REGIME[regime], b.fibers()[k],
                               scaling="none", depth="correctors")
        v1[k] = ch.terms["u1"].reshape(b.n_y, -1)
        v2[k] = ch.terms["u0_1"].reshape(b.n_y, -1)
    return gelfand_inverse(b.like(v1)).values, gelfand_inverse(b.like(v2)).values


def rate_errors_loop(cfg, forms):
    """pipeline.rate_experiment's worst error per eps in the line picture,
    one load at a time: the reference through LineResolvent.apply, the
    leading approximant through the frequency loop limit_resolvent_loop, the
    corrections pulled back to the line, and each error transformed again
    for its norm. Returns {(regime, component, order): [error per eps]}."""
    out = {}
    for N in cfg.n_grid:
        eps = cfg.length / N
        R = pl.LineResolvent(forms, eps, cfg.gamma)
        for regime in cfg.regimes:
            worst = {}
            for f in pl.make_loads(forms.mesh.cross, forms.mesh.n_y, N, eps, regime,
                                   n_loads=cfg.n_loads, seed=cfg.seed):
                g = f.like(pl._scaled_load(cfg, f.values, eps)) if regime == "bend" else f
                ref = R.apply(g).values
                a0 = limit_resolvent_loop(forms, g, cfg.gamma, regime,
                                          momentum_variant=cfg.momentum_variant).values
                u1, u01 = corrector_fields_loop(forms, g, R.t, regime)
                approx = {0: a0, 1: a0 + u1, 2: a0 + u1 + u01}
                for o in cfg.orders:
                    e = g.like(ref - approx[o])
                    for c in COMPONENTS[regime]:
                        err = line_error_norm_loop(forms, e, pl._ORDER_NORM[o], c)
                        worst[(regime, c, o)] = max(worst.get((regime, c, o), 0.0), err)
            for key, err in worst.items():
                out.setdefault(key, []).append(err)
    return out
