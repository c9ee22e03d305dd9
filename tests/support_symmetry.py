"""The sign flips x -> (g1 x1, g2 x2, x3) written out on the full rank-4
stiffness tensor and on the node coordinates: an oracle for
material.flip_invariant and fem.symmetry_group. Validation-only; not part
of the library."""

import numpy as np

# the index pair (i, j) of each Voigt slot, and the slot of each pair
PAIRS = [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
_SLOT = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
# the identity, the central inversion and the mirrors x1 -> -x1, x2 -> -x2
GROUP_ORDER = [(1, 1), (-1, -1), (-1, 1), (1, -1)]


def flipped_voigt(C, signs):
    """The Voigt matrix of A'_ijkl = R_ia R_jb R_kc R_ld A_abcd, R =
    diag(g1, g2, 1), for the rank-4 tensor A of the Voigt matrix C."""
    A = C[_SLOT[:, :, None, None], _SLOT[None, None, :, :]]
    R = np.diag([signs[0], signs[1], 1.0])
    B = np.einsum("ia,jb,kc,ld,abcd->ijkl", R, R, R, R, A)
    return np.array([[B[i, j, k, l] for k, l in PAIRS] for i, j in PAIRS])


def tensor_invariant(t, signs):
    """Whether the flip moves no entry of t by more than 2e-12: a flip
    negates the entries it does not keep, so that is each within 1e-12."""
    return bool(np.max(np.abs(flipped_voigt(t.voigt, signs) - t.voigt)) <= 2e-12)


def nodes_invariant(cross, signs):
    """Whether the flip maps the node set onto itself, compared as sets of
    coordinates rounded to 1e-8."""
    def points(x):
        return {tuple(p) for p in np.round(x, 8)}
    return points(cross.nodes * signs) == points(cross.nodes)


def expected_group(profile, cross):
    """The flips of GROUP_ORDER under which every layer and the node set are
    invariant, or the identity alone where the inversion is not one."""
    group = [g for g in GROUP_ORDER if nodes_invariant(cross, g)
             and all(tensor_invariant(t, g) for _, _, t in profile.layers)]
    return group if (-1, -1) in group else [(1, 1)]
