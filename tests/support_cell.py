"""The chi-dependent cell problems solved as such, with complex Lambda data:
an oracle for the chi-scaling of the J-basis cell solutions that
homogenize.chi_tensor uses. Validation-only; not part of the library."""

import numpy as np

from rodhom import homogenize as hz


def chi_tensor_direct(forms, chi):
    """The Hermitian 4x4 effective matrix at quasimomentum chi, in the rod
    slot order, from the complex cell problems with Lambda data."""
    G = np.diag(hz.g_scaling(chi))
    # column k of G holds the J-coefficients of Lambda_k
    sols = np.array([hz.solve_cell(forms, m) for m in G.T])
    A = G.conj().T @ (forms.J_gram @ G + forms.Ls.T @ sols.T)
    return 0.5 * (A + A.conj().T)
