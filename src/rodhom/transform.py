"""The discrete Gelfand transform between a periodic line and fiber bundles,
its inverse, the line L2 norm, and the band-limiting smoother.

The line is a periodic box of N periods of length eps (L = N*eps), sampled at
the tensor grid (omega nodes) x (N*n_y longitudinal slabs); slab (p, q) sits
at x3 = eps*(p + y_q) with y_q = -1/2 + q/n_y, so each period carries exactly
the y-nodes of the fiber product mesh. Bundles are in the Gelfand picture:
periodic in y, which is what the fiber forms act on.
"""

from dataclasses import dataclass

import numpy as np


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


@dataclass
class FiberBundle:
    """values[k, q, :] is the fiber field of quasimomentum chis[k] at y-node
    q, in the Gelfand picture (periodic in y)."""
    values: np.ndarray
    chis: np.ndarray
    eps: float

    @property
    def n_y(self):
        return self.values.shape[1]

    def y_nodes(self):
        return -0.5 + np.arange(self.n_y) / self.n_y

    def fibers(self):
        """The product-mesh dof vectors of every fiber (y-major, matching
        ProductMesh), as an (N, n_dof) array."""
        return self.values.reshape(len(self.chis), -1)

    def like(self, values):
        """A bundle at the same chis and eps; values may be laid out as fibers()."""
        return FiberBundle(np.reshape(values, self.values.shape), self.chis, self.eps)


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
    return FiberBundle(hat, chis, lf.eps)


def gelfand_inverse(b):
    n_y = b.n_y
    N = len(b.chis)
    y = b.y_nodes()
    vals = b.values / _twiddle(b.chis, y)[:, :, None]
    f = np.fft.ifft(vals, axis=0) * np.sqrt(N / b.eps)
    return LineField(f.reshape(N * n_y, -1), b.eps, n_y)


def line_norm_sq(lf, M_omega):
    """Squared L2 norm: consistent mass over omega, lumped (uniform) weights
    along the line; the norm the Gelfand transform preserves. M_omega is
    applied first: one three-operand contraction is ten times slower."""
    v = lf.values.reshape(lf.S, -1, 3)
    return float((lf.eps / lf.n_y) * np.vdot(v, M_omega @ v).real)


def xi_smoothing(lf):
    """Band-limiting smoother: drop line frequencies outside [-N/2, N/2)
    (equivalently: keep only the fiberwise y-mean)."""
    j = np.fft.fftfreq(lf.S) * lf.S
    keep = (j >= -lf.N / 2) & (j < lf.N / 2)
    hat = np.fft.fft(lf.values, axis=0)
    hat[~keep] = 0.0
    return lf.like(np.fft.ifft(hat, axis=0))
