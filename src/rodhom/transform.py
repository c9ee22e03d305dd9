"""Discrete Gelfand/Floquet transforms between a periodic line and fiber
bundles, the band-limiting smoother, and real-domain momentum operators.

The line is a periodic box of N periods of length eps (L = N*eps), sampled at
the tensor grid (omega nodes) x (N*n_y longitudinal slabs); slab (p, q) sits
at x3 = eps*(p + y_q) with y_q = -1/2 + q/n_y, so each period carries exactly
the y-nodes of the fiber product mesh. The Gelfand picture is periodic in y
(what the fiber forms act on); the Floquet picture differs by the phase
e^{i chi y} per fiber.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import cross_mass


class AlignmentError(Exception):
    pass


def chi_values(N):
    """Quasimomenta 2 pi k / N folded into [-pi, pi), FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(N)


@dataclass
class LineField:
    """Sampled field on the periodic line: values[s] is the cross-section
    coefficient vector (3 per omega node) of slab s = p*n_y + q."""
    values: np.ndarray
    eps: float
    n_y: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2:
            raise AlignmentError("values must be (slabs, cross dofs)")
        if self.values.shape[0] % self.n_y != 0:
            raise AlignmentError("slab count must tile whole periods")

    @property
    def S(self):
        return self.values.shape[0]

    @property
    def N(self):
        return self.S // self.n_y

    @property
    def L(self):
        return self.N * self.eps

    def like(self, values):
        return LineField(values, self.eps, self.n_y)

    def to_json(self):
        return {"N": self.N, "eps": self.eps, "n_y": self.n_y,
                "values_re": self.values.real.tolist(),
                "values_im": self.values.imag.tolist()}

    @staticmethod
    def from_json(obj):
        vals = np.array(obj["values_re"]) + 1j * np.array(obj["values_im"])
        return LineField(vals, obj["eps"], obj["n_y"])


@dataclass
class FiberBundle:
    """values[k, q, :] is the fiber field of quasimomentum chis[k] at y-node
    q; picture is 'gelfand' (periodic) or 'floquet' (quasiperiodic)."""
    values: np.ndarray
    chis: np.ndarray
    eps: float
    picture: str

    @property
    def n_y(self):
        return self.values.shape[1]

    def y_nodes(self):
        return -0.5 + np.arange(self.n_y) / self.n_y

    def fiber(self, k):
        """Product-mesh dof vector of fiber k (y-major, matching ProductMesh)."""
        return self.values[k].reshape(-1)

    def like(self, values):
        return FiberBundle(values, self.chis, self.eps, self.picture)


def _twiddle(chis, y):
    return np.exp(-1j * np.multiply.outer(chis, y))  # (N, n_y)


def gelfand(lf):
    """Periodic-picture transform: phases e^{-i chi (p + y_q)}, unitary for
    the lumped-in-y line norm."""
    v = lf.values.reshape(lf.N, lf.n_y, -1)
    hat = np.fft.fft(v, axis=0) * np.sqrt(lf.eps / lf.N)
    chis = chi_values(lf.N)
    y = -0.5 + np.arange(lf.n_y) / lf.n_y
    hat *= _twiddle(chis, y)[:, :, None]
    return FiberBundle(hat, chis, lf.eps, "gelfand")


def gelfand_inverse(b):
    if b.picture != "gelfand":
        raise AlignmentError("expected a gelfand-picture bundle")
    n_y = b.n_y
    N = len(b.chis)
    y = b.y_nodes()
    vals = b.values / _twiddle(b.chis, y)[:, :, None]
    f = np.fft.ifft(vals, axis=0) * np.sqrt(N / b.eps)
    return LineField(f.reshape(N * n_y, -1), b.eps, n_y)


def floquet(lf):
    """Quasiperiodic-picture transform: plain DFT over periods."""
    v = lf.values.reshape(lf.N, lf.n_y, -1)
    hat = np.fft.fft(v, axis=0) * np.sqrt(lf.eps / lf.N)
    return FiberBundle(hat, chi_values(lf.N), lf.eps, "floquet")


def floquet_inverse(b):
    if b.picture != "floquet":
        raise AlignmentError("expected a floquet-picture bundle")
    N = len(b.chis)
    f = np.fft.ifft(b.values, axis=0) * np.sqrt(N / b.eps)
    return LineField(f.reshape(N * b.n_y, -1), b.eps, b.n_y)


def to_floquet(b):
    """Multiply fiber k by e^{i chi_k y}: gelfand -> floquet."""
    if b.picture != "gelfand":
        raise AlignmentError("expected a gelfand-picture bundle")
    vals = b.values / _twiddle(b.chis, b.y_nodes())[:, :, None]
    return FiberBundle(vals, b.chis, b.eps, "floquet")


def line_norm_sq(lf, M_omega):
    """Squared L2 norm: consistent mass over omega, lumped (uniform) weights
    along the line; exactly the Parseval partner of bundle_norm_sq."""
    v = lf.values.reshape(lf.S, -1, 3)
    return float((lf.eps / lf.n_y)
                 * np.einsum("sic,ij,sjc->", v.conj(), M_omega, v).real)


def bundle_norm_sq(b, M_omega):
    v = b.values.reshape(len(b.chis), b.n_y, -1, 3)
    return float((1.0 / b.n_y)
                 * np.einsum("kqic,ij,kqjc->", v.conj(), M_omega, v).real)


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


def xi_smoothing(lf, method="fourier"):
    """Band-limiting smoother: drop line frequencies outside [-N/2, N/2)
    (equivalently: keep only the fiberwise y-mean)."""
    if method == "fourier":
        j = np.fft.fftfreq(lf.S) * lf.S
        keep = (j >= -lf.N / 2) & (j < lf.N / 2)
        hat = np.fft.fft(lf.values, axis=0)
        hat[~keep] = 0.0
        return lf.like(np.fft.ifft(hat, axis=0))
    if method == "fiber_mean":
        b = gelfand(lf)
        mean = np.mean(b.values, axis=1, keepdims=True)
        return gelfand_inverse(b.like(np.broadcast_to(
            mean, b.values.shape).copy()))
    raise ValueError(method)


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

