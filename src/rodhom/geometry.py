"""Cross-section meshes, the periodic product mesh, and cross-section moments."""

from dataclasses import dataclass, field

import numpy as np

from .checks import POSITIVE, is_integer, require

# a mesh direction needs at least two cells
_CELLS = ("an integer >= 2", lambda v: is_integer(v) and v >= 2)


class CrossSectionMesh:
    """Structured quadrilateral mesh of a centered, area-1 cross-section.

    nodes: (n_nodes, 2) coordinates; elements: (n_elem, 4) integer-valued
    indices into nodes, counterclockwise. Anything else raises ValueError.
    """

    def __init__(self, nodes, elements):
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes must be an (n_nodes, 2) array of coordinates, "
                             "not one of shape %s" % (self.nodes.shape,))
        raw = np.asarray(elements)
        self.elements = e = raw.astype(int)
        if e.ndim != 2 or e.shape[1] != 4:
            raise ValueError("elements must be an (n_elem, 4) array of node indices, "
                             "not one of shape %s" % (e.shape,))
        if not np.array_equal(e, raw):
            raise ValueError("element node indices must be integers")
        if e.size and not 0 <= e.min() <= e.max() < self.n_nodes:
            raise ValueError("element node indices must lie in [0, %d)" % self.n_nodes)
        # det of the bilinear map is affine in each reference coordinate, so
        # it is positive on an element iff it is positive at the 4 corners
        X = self.nodes[self.elements]                              # (n_elem, 4, 2)
        a, b = np.roll(X, -1, axis=1) - X, np.roll(X, 1, axis=1) - X
        bad = np.flatnonzero(np.min(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0], axis=1) <= 0)
        if len(bad):
            raise ValueError("cross-section element %d has a non-positive Jacobian "
                             "determinant (inverted, clockwise or non-convex)" % bad[0])

    @property
    def n_nodes(self):
        return len(self.nodes)


def build_rectangle(aspect, nx, ny):
    """Axis-aligned rectangle with side ratio `aspect`, scaled to area 1.

    The mesh is uniform nx-by-ny, centered at the origin, so all the
    normalisation identities (zero first moments, zero mixed moment) hold by
    construction. aspect must be a positive number and nx, ny integers >= 2.
    """
    require("aspect", aspect, *POSITIVE)
    require("nx", nx, *_CELLS)
    require("ny", ny, *_CELLS)
    a = np.sqrt(aspect)   # side along x1
    b = 1.0 / a           # side along x2, so a*b = 1
    xs = np.linspace(-a / 2, a / 2, nx + 1)
    ys = np.linspace(-b / 2, b / 2, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    elements = []
    for i in range(nx):
        for j in range(ny):
            elements.append([nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)])
    return CrossSectionMesh(nodes, np.array(elements))


def node_pairing(mesh, signs):
    """The pairing of the node set with its image under the sign flips
    x -> (s1 x1, s2 x2), signs = (s1, s2): pairing[i] is the node index of
    the image of node_i, to 1e-10, or None where some image is no node.
    (-1, -1) is the central inversion, (-1, 1) and (1, -1) the mirrors."""
    nodes = mesh.nodes
    # match[i, j]: node j lies within 1e-10 of the image of node_i in both
    # coordinates; a dense n_nodes^2 table, as cross_mass is
    match = np.all(np.abs(nodes[:, None, :] * signs - nodes[None, :, :]) <= 1e-10, axis=2)
    if not np.all(np.any(match, axis=1)):
        return None
    return np.argmax(match, axis=1)


def is_centrally_symmetric(mesh):
    """Check invariance of the node set under x -> -x, to 1e-10.

    Returns (flag, pairing) where pairing[i] is the node index of -node_i
    (or None when the mesh is not symmetric).
    """
    pairing = node_pairing(mesh, (-1, -1))
    return pairing is not None, pairing


class ProductMesh:
    """Tensor mesh of the cross-section with a uniform periodic y-grid.

    The y-grid has n_y nodes y_q = -1/2 + q/n_y (q = 0..n_y-1); the node at
    y = 1/2 is identified with y = -1/2. Product node index = q * n_cross + i.
    n_y must be an integer >= 2.
    """

    def __init__(self, cross, n_y):
        self.cross = cross
        self.n_y = int(require("n_y", n_y, *_CELLS))
        self.y_nodes = -0.5 + np.arange(self.n_y) / self.n_y

    @property
    def n_nodes(self):
        return self.cross.n_nodes * self.n_y

    @property
    def n_dof(self):
        return 3 * self.n_nodes

    def node_coords(self):
        """(n_nodes, 3) array of (x1, x2, y) coordinates."""
        nc = np.tile(self.cross.nodes, (self.n_y, 1))
        yy = np.repeat(self.y_nodes, self.cross.n_nodes)
        return np.column_stack([nc, yy])


def cross_mass(mesh):
    """Scalar Q1 mass matrix of the cross-section mesh by 2x2 Gauss
    quadrature (dense; the cross-sections in play are small). This is the
    one cross-section quadrature: the moments are quadratic forms of it."""
    g = 1.0 / np.sqrt(3.0)
    pts = np.array([[-g, -g], [g, -g], [g, g], [-g, g]])
    n = mesh.n_nodes
    M = np.zeros((n, n))
    p = mesh.nodes[mesh.elements]
    rows, cols = mesh.elements[:, :, None], mesh.elements[:, None, :]
    for (xi, eta) in pts:
        N = 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                             (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])
        dNdxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
        dNdeta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
        J11 = np.einsum("a,ea->e", dNdxi, p[:, :, 0])
        J12 = np.einsum("a,ea->e", dNdxi, p[:, :, 1])
        J21 = np.einsum("a,ea->e", dNdeta, p[:, :, 0])
        J22 = np.einsum("a,ea->e", dNdeta, p[:, :, 1])
        detJ = J11 * J22 - J12 * J21
        # one Gauss point at a time, elements in order (add.at is unbuffered)
        np.add.at(M, (rows, cols), np.einsum("e,a,b->eab", detJ, N, N))
    return M


@dataclass
class MomentData:
    """Second moments of the cross-section and the induced weight matrices."""
    c1: float
    c2: float
    C_stretch: np.ndarray = field(init=False)
    C_rod: np.ndarray = field(init=False)

    def __post_init__(self):
        self.C_stretch = np.diag([self.c1 + self.c2, 1.0])
        self.C_rod = np.diag([1.0, 1.0, self.c1 + self.c2, 1.0])


def compute_moments(mesh):
    """Second moments c1 = int x1^2 = x1^T Mw x1 and c2 = x2^T Mw x2 in the
    cross quadrature Mw (x is its own bilinear interpolant).

    MomentData and the embeddings assume a normalised section: area 1, zero
    first moments and zero int x1 x2, each to 1e-12; a mesh that is not
    raises ValueError.
    """
    Mw = cross_mass(mesh)
    one, x1, x2 = np.ones(mesh.n_nodes), mesh.nodes[:, 0], mesh.nodes[:, 1]
    area, mx1, mx2, mixed = one @ Mw @ one, one @ Mw @ x1, one @ Mw @ x2, x1 @ Mw @ x2
    if max(abs(area - 1.0), abs(mx1), abs(mx2), abs(mixed)) > 1e-12:
        raise ValueError("cross-section is not normalised: area %.3g, first moments "
                         "(%.3g, %.3g), int x1 x2 %.3g; need 1, 0, 0 and 0"
                         % (area, mx1, mx2, mixed))
    return MomentData(c1=float(x1 @ Mw @ x1), c2=float(x2 @ Mw @ x2))
