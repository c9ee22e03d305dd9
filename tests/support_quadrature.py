"""Element-by-element Gauss quadrature of the Q1 fiber forms, written as plain
loops, and the J-data as closed-form strain patterns: oracles for the
assembled operators. Validation-only; not part of the library."""

import numpy as np

from rodhom.geometry import CrossSectionMesh

_GAUSS = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_CORNERS = [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def graded_square(n):
    """Unit square with nodes at 0.5 s |s|^(1/2), s uniform on [-1, 1]:
    centrally symmetric, coarse at the rim, fine at the centre."""
    s = np.linspace(-1.0, 1.0, n + 1)
    x = 0.5 * s * np.sqrt(np.abs(s))
    X, Y = np.meshgrid(x, x, indexing="ij")
    elements = [[i * (n + 1) + j, (i + 1) * (n + 1) + j,
                 (i + 1) * (n + 1) + j + 1, i * (n + 1) + j + 1]
                for i in range(n) for j in range(n)]
    return CrossSectionMesh(np.column_stack([X.ravel(), Y.ravel()]), elements)


def quad_areas(cross):
    """Shoelace area of every element of a cross-section mesh."""
    p = cross.nodes[cross.elements]  # (n_elem, 4, 2)
    x, y = p[:, :, 0], p[:, :, 1]
    return 0.5 * np.abs(
        np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1))


def total_area(cross):
    """Polygon area of a cross-section mesh: the sum of its element areas."""
    return float(np.sum(quad_areas(cross)))


def cross_mass_loop(cross):
    """Scalar Q1 mass matrix of a cross-section mesh, element by element
    and Gauss point by Gauss point."""
    M = np.zeros((cross.n_nodes, cross.n_nodes))
    for elem in cross.elements:
        X = cross.nodes[elem]
        for eta in _GAUSS:
            for xi in _GAUSS:
                n2 = np.array([(1 + s * xi) * (1 + t * eta) / 4 for s, t in _CORNERS])
                dxi = [s * (1 + t * eta) / 4 for s, t in _CORNERS]
                deta = [t * (1 + s * xi) / 4 for s, t in _CORNERS]
                jac = np.array([np.dot(dxi, X), np.dot(deta, X)])
                M[np.ix_(elem, elem)] += np.linalg.det(jac) * np.outer(n2, n2)
    return M


def gauss_points(forms):
    """Yield (dofs, w, N, G, D, xhat) at every Gauss point of every product
    element: the 24 element dofs, the weight, the 8 shape values, their
    physical gradients (3 x 8: d/dx1, d/dx2, d/dy), the stiffness and the
    cross-section point."""
    mesh, cross = forms.mesh, forms.mesh.cross
    hz = 1.0 / mesh.n_y
    for q in range(mesh.n_y):
        for elem in cross.elements:
            X = cross.nodes[elem]
            nodes = [i + q * cross.n_nodes for i in elem] \
                + [i + (q + 1) % mesh.n_y * cross.n_nodes for i in elem]
            dofs = [3 * a + c for a in nodes for c in range(3)]
            for zeta in _GAUSS:
                D = forms.profile.evaluate(mesh.y_nodes[q] + (zeta + 1) / 2 * hz).voigt
                levels = [((1 - zeta) / 2, -1 / hz), ((1 + zeta) / 2, 1 / hz)]
                for eta in _GAUSS:
                    for xi in _GAUSS:
                        n2 = np.array([(1 + s * xi) * (1 + t * eta) / 4 for s, t in _CORNERS])
                        dxi = [s * (1 + t * eta) / 4 for s, t in _CORNERS]
                        deta = [t * (1 + s * xi) / 4 for s, t in _CORNERS]
                        jac = np.array([np.dot(dxi, X), np.dot(deta, X)])
                        d12 = np.linalg.solve(jac, np.array([dxi, deta]))
                        w = np.linalg.det(jac) * hz / 2
                        N = np.concatenate([n2 * nz for nz, _ in levels])
                        G = np.vstack([np.concatenate([d12 * nz for nz, _ in levels], axis=1),
                                       np.concatenate([n2 * dz for _, dz in levels])])
                        yield dofs, w, N, G, D, n2 @ X


def strain_matrices(N, G):
    """The 6x24 matrices B_s, B_x of one Gauss point: the engineering Voigt
    strain of a fiber field is B_s u + i chi B_x u."""
    Bs = np.zeros((6, 24))
    Bx = np.zeros((6, 24))
    for a in range(8):
        d1, d2, dy = G[:, a]
        c = 3 * a
        Bs[0, c], Bs[1, c + 1], Bs[2, c + 2] = d1, d2, dy
        Bs[3, c + 1], Bs[3, c + 2] = dy, d2
        Bs[4, c], Bs[4, c + 2] = dy, d1
        Bs[5, c], Bs[5, c + 1] = d2, d1
        Bx[2, c + 2] = Bx[3, c + 1] = Bx[4, c] = N[a]
    return Bs, Bx


def j_voigt(m, coords):
    """The strain pattern J_m of the Bernoulli-Navier motion with
    coefficients m, as engineering Voigt vectors over a coordinate array
    whose last axis holds (x1, x2) or (x1, x2, y)."""
    coords = np.asarray(coords)
    x1, x2 = coords[..., 0], coords[..., 1]
    out = np.zeros(coords.shape[:-1] + (6,), dtype=np.result_type(np.asarray(m).dtype, float))
    out[..., 2] = -x1 * m[0] - x2 * m[1] + m[3]
    out[..., 3] = -x1 * m[2]
    out[..., 4] = x2 * m[2]
    return out
