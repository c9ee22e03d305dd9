"""FE machinery on the periodic product mesh.

Vector Q1 elements on quad-times-segment product cells, 2x2x2 Gauss
quadrature, periodic identification of the y = 1/2 plane with y = -1/2. Each
element is integrated with its own bilinear Jacobian, so graded and
non-rectangular cross-section meshes are handled (CrossSectionMesh rejects an
element whose Jacobian determinant is not positive everywhere).

Strains are engineering Voigt vectors (e11, e22, e33, 2e23, 2e13, 2e12). The
strain of a fiber field is B_s u + i*chi*B_x u, with B_x carrying (u3, u2, u1)
into slots (e33, 2e23, 2e13). Assembly builds every fiber operator once:

- K_ss = sum w B_s^T D B_s and K_xx = sum w B_x^T D B_x;
- P = sum w B_s^T D B_x, which is real. K_sx = i (P - P^T) needs no assembly
  of its own, and K(chi) = K_ss + chi*K_sx + chi^2*K_xx, so sweeps in chi
  reuse one assembly;
- the consistent mass M and its scalar block M1 (M = M1 kron I3);
- Ls = P W and Lx = K_xx W, the n_dof x 4 loads of the four canonical
  J-data J_k = B_x W e_k (see homogenize) of the rod fields W, and their
  Gram matrix J_gram = W^T K_xx W; exact on every Q1 cross-section, as x is
  its own bilinear interpolant;
- the tiled embedding blocks E0 and E1 (see embedding_blocks), whose E0 is the
  rigid-motion kernel of K(0) that the quotient solver factors out;
- the scalar blocks of the H1 norm: S_hat (cross-section gradients), S_y
  (d/dy) and C_y = i (Y - Y^T) with Y = int d_y N_a N_b, so that
  int |d_y u + i chi u|^2 = u^H (S_y + chi C_y + chi^2 M1) u per component.

Every term of the corrector chains, the cell problems, the rod tensor and the
error norms is one of these matrices applied to a nodal vector. The norms
take a stack (..., n_dof) of fibers with one chi each, and apply each scalar
block to the whole stack in one sparse product (norm_sq_parts), which yields
the L2 and H1 parts of every fiber and displacement component at once. No
Gauss-point fields are kept: they would be a second representation of the
same operators, to be kept consistent with the first. Values derived from the
forms are cached properties of AssembledForms.

The operators are stored once, as RealCSR (their transposes RealCSC): a real
operator multiplies a complex block in real arithmetic, as one real product
on the block's float64 view, where the real and imaginary parts of each entry
are two columns. That is bitwise the complex product, with half its
operations and no complex copy of the operator; it serves the chains, the
norms, the solvers' products with M and the basis Q, and ARPACK's products
with M in smallest_eigs. K_sx and C_y, whose entries are imaginary, multiply
as complex matrices.

Every sparse LU goes through factorize and is Hermitian positive definite:
K_ss with four coordinates pinned (QuotientSolver) and the resolvents
t K(chi) + M (ResolventSolver), each in SuperLU's symmetric mode with every
pivot checked to be positive. The forms keep one resolvent LU per (chi, t)
they are asked for (AssembledForms.resolvent) for their lifetime: the
fiber-rate study and the shift-invert eigensolves, whose matrix
K(chi) + M / t is the resolvent's up to the factor t, share it; the line
study keeps its own. The cell's symmetry is one object, symmetry_group:
the sign flips of x-hat under which the node set and every layer
(material.flip_invariant) are invariant. Where it holds the central
inversion the forms split, and every one of these LUs is of the
block-diagonal matrix in the orthogonal ParityBasis of the group's
classes, each block in a nested-dissection order of the folded mesh, in one
factorize call: with both mirrors x1 -> -x1 and x2 -> -x2 four classes, the
bends in the x1 and the x2 plane, extension and torsion; with the inversion
alone two, bend and stretch. Forms that do not split factorise in a
nested-dissection order of the mesh (AssembledForms.order).

A chi sweep (spectrum_scaling, the fiber-rate study) factorises each chi's
resolvents on the calling thread and runs the rest of that chi as one task
of sweep on a pool of SWEEP_THREADS threads. SuperLU releases the GIL while
it factorises, numpy while it computes on arrays. The results are bitwise
those of the same calls in turn, made by the same code on other threads.
"""

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry, homogenize, material


KERNEL_TOLERANCE = 1e-8   # the largest relative kernel residual QuotientSolver accepts
EIG_BACKWARD_TOLERANCE = 1e-10   # the largest eigenpair backward error smallest_eigs returns
# the tasks of a chi sweep at once: two single-column solve loops side by side
# each take twice as long as one alone, so a third thread would gain nothing
SWEEP_THREADS = 2


class SingularSystem(Exception):
    pass


class IncompatibleLoad(Exception):
    pass


class NoConvergence(Exception):
    pass


class PairingMismatch(Exception):
    pass


_GAUSS_1D = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_QUAD = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)  # ccw corners
# (Voigt slot, displacement component, derivative direction) of B_s and
# (Voigt slot, displacement component) of B_x
_BS = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1),
       (4, 0, 2), (4, 2, 0), (5, 0, 1), (5, 1, 0)]
_BX = [(2, 2), (3, 1), (4, 0)]


def _integrate(w, left, rights, D=None):
    """Element blocks sum_g (w_g left_g^T) D_g right_g, one array per right
    factor; left and each right are (..., 8, slots, k) arrays, D is
    (..., 8, 6, 6) or None for the identity.

    The Gauss points are added one at a time, in this association, so that
    rectangular meshes get the same rounding in K as an assembly with one
    shared element geometry: the line resolvent amplifies a last-bit change
    in K_ss about a thousandfold, which shows in the per-eps error tables.
    """
    outs = [0.0] * len(rights)
    for g in range(8):
        lt = w[:, g, None, None] * np.swapaxes(left[..., g, :, :], -1, -2)
        if D is not None:
            lt = lt @ D[..., g, :, :]
        outs = [out + lt @ right[..., g, :, :] for out, right in zip(outs, rights)]
    return outs


class _RealProducts:
    """The products of a sparse matrix with dense arrays, where a float64
    matrix times a complex128 array is one real product on the array's
    float64 view (made C-contiguous first): the real and imaginary parts of
    each entry are two columns of it, so A @ X.view(float) is
    (A @ X).view(float), bitwise the complex product, which would upcast A to
    a complex copy and take twice the operations. Every other product is the
    base class's. _matmul_vector and _matmul_multivector are the hooks of
    scipy's products with dense arrays; a scipy that names them otherwise
    multiplies in complex arithmetic, to the same values."""

    def _real_view(self, other):
        return self.dtype == np.float64 and other.dtype == np.complex128

    def _matmul_vector(self, other):
        if self._real_view(other):
            return self._matmul_multivector(other[:, None])[:, 0]
        return super()._matmul_vector(other)

    def _matmul_multivector(self, other):
        if self._real_view(other):
            real = np.ascontiguousarray(other).view(np.float64)
            return super()._matmul_multivector(real).view(np.complex128)
        return super()._matmul_multivector(other)

    # a transpose or a conversion to the other format keeps the real products
    @property
    def _csr_container(self):
        return RealCSR

    @property
    def _csc_container(self):
        return RealCSC


class RealCSR(_RealProducts, sp.csr_matrix):
    """A CSR matrix with real products (see _RealProducts)."""


class RealCSC(_RealProducts, sp.csc_matrix):
    """A CSC matrix with real products (see _RealProducts)."""


def _sparse(blocks, index, n):
    """Sum the element blocks blocks[..., a, b] into an n x n RealCSR matrix
    at rows index[..., a] and columns index[..., b]."""
    shape = index.shape + index.shape[-1:]
    rows = np.broadcast_to(index[..., :, None], shape).ravel()
    cols = np.broadcast_to(index[..., None, :], shape).ravel()
    return RealCSR((np.broadcast_to(blocks, shape).ravel(), (rows, cols)), shape=(n, n))


def embedding_blocks(cross):
    """E0 and E1 of the embedding E(chi) = E0 + chi E1 of the rod
    coefficients (m1, m2, m3, m4) into fields on the cross-section nodes, as
    (3 n_cross, 4) column blocks in that slot order. E0 holds the rigid
    motions: the in-plane translations, the torsion rotation (x2, -x1, 0) and
    the extension (0, 0, 1). E1 = -i x-hat e3 is the tilt of the two
    translations, zero in the torsion and extension columns."""
    x1, x2 = cross.nodes[:, 0], cross.nodes[:, 1]
    E0 = np.zeros((4, cross.n_nodes, 3))
    E0[0, :, 0] = E0[1, :, 1] = E0[3, :, 2] = 1.0
    E0[2, :, 0], E0[2, :, 1] = x2, -x1
    E1 = np.zeros((4, cross.n_nodes, 3), dtype=complex)
    E1[0, :, 2], E1[1, :, 2] = -1j * x1, -1j * x2
    return E0.reshape(4, -1).T, E1.reshape(4, -1).T


class AssembledForms:
    """The assembled fiber operators of a profile on a product mesh."""

    def __init__(self, profile, mesh):
        self.profile = profile
        self.mesh = mesh
        cross = mesh.cross
        n_y, n_c, n_ec = mesh.n_y, cross.n_nodes, len(cross.elements)
        hz = 1.0 / n_y

        X = cross.nodes[cross.elements]                            # (n_ec, 4, 2)

        # Gauss points (xi, eta, zeta), z-major; brick node a is quad corner
        # a % 4 on the lower (a < 4) or upper y-level
        pts = np.array([(x, y, z) for z in _GAUSS_1D for y in _GAUSS_1D for x in _GAUSS_1D])
        x, y, z = pts[:, :1], pts[:, 1:2], pts[:, 2:]
        sx, sy = np.tile(_QUAD, (2, 1)).T
        sz = np.repeat([-1.0, 1.0], 4)
        N = (1 + sx * x) * (1 + sy * y) * (1 + sz * z) / 8.0                # (8 g, 8 a)
        dN = np.stack([sx * (1 + sy * y) * (1 + sz * z) / 8.0,
                       (1 + sx * x) * sy * (1 + sz * z) / 8.0,
                       (1 + sx * x) * (1 + sy * y) * sz / 8.0], axis=1)   # (8 g, 3, 8 a)

        # d(x1, x2)/d(xi, eta) of the bilinear map is c_xi + twist * eta and
        # c_eta + twist * xi; in edge differences, it is exact on rectangles
        c_xi = ((X[:, 1] - X[:, 0]) + (X[:, 2] - X[:, 3])) / 4
        c_eta = ((X[:, 3] - X[:, 0]) + (X[:, 2] - X[:, 1])) / 4
        twist = ((X[:, 0] - X[:, 1]) - (X[:, 3] - X[:, 2]))[:, None] / 4
        jac = np.stack([c_xi[:, None] + twist * y, c_eta[:, None] + twist * x], axis=2)
        w = (jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]) * hz / 2.0
        G = np.concatenate([np.linalg.inv(jac) @ dN[:, :2],
                            np.broadcast_to(dN[:, 2:] * (2.0 / hz), (n_ec, 8, 1, 8))], axis=2)

        Bs = np.zeros((n_ec, 8, 6, 8, 3))
        for slot, comp, d in _BS:
            Bs[:, :, slot, :, comp] = G[:, :, d]
        Bx = np.zeros((8, 6, 8, 3))
        for slot, comp in _BX:
            Bx[:, slot, :, comp] = N
        Bs, Bx = Bs.reshape(n_ec, 8, 6, 24), Bx.reshape(8, 6, 24)
        D = np.array([[profile.evaluate(y0 + (zg + 1) / 2.0 * hz).voigt for zg in z[:, 0]]
                      for y0 in mesh.y_nodes])[:, None]                    # (n_y, 1, 8, 6, 6)

        layers = np.arange(n_y)[:, None, None] * n_c
        nodes = np.concatenate([cross.elements + layers,
                                cross.elements + np.roll(layers, -1, axis=0)], axis=2)
        dofs = (3 * nodes[..., None] + np.arange(3)).reshape(n_y, n_ec, 24)
        n_dof, n_nodes = mesh.n_dof, mesh.n_nodes
        K_ss, P = _integrate(w, Bs, [Bs, Bx], D)
        K_xx, = _integrate(w, Bx, [Bx], D)
        self.K_ss = _sparse(K_ss, dofs, n_dof)
        self.K_xx = _sparse(K_xx, dofs, n_dof)
        self.P = _sparse(P, dofs, n_dof)
        self.K_sx = (1j * (self.P - self.P.T)).tocsr()

        Nv, G12, Gy = N[:, None, :], G[:, :, :2], G[:, :, 2:]
        M1, = _integrate(w, Nv, [Nv])
        S_hat, = _integrate(w, G12, [G12])
        S_y, Y = _integrate(w, Gy, [Gy, Nv])
        self.M1 = _sparse(M1, nodes, n_nodes)
        self.S_hat = _sparse(S_hat, nodes, n_nodes)
        self.S_y = _sparse(S_y, nodes, n_nodes)
        self.C_y = _sparse(1j * (Y - np.swapaxes(Y, -1, -2)), nodes, n_nodes)
        self.M = RealCSR(sp.kron(self.M1, sp.identity(3), format="csr"))

        # tiled as rows of E.T: the columns stay column-major, the layout the
        # chains' products are rounded with
        self.E0, self.E1 = (np.tile(E.T, n_y).T for E in embedding_blocks(cross))
        # the rigid motions: the four columns of E0, extension before torsion
        self.kernel_fields = np.ascontiguousarray(self.E0.T[[0, 1, 3, 2]])
        # the rod fields W: u3 = -x1, u3 = -x2 (Im E1), the torsion, the extension
        W = np.hstack([self.E1[:, :2].imag, self.E0[:, 2:]])
        self.Ls, self.Lx = self.P @ W, self.K_xx @ W
        self.J_gram = W.T @ self.Lx
        # P T and K_xx T for the in-plane translations T: the chi-independent
        # test columns of the bend coefficient projection
        T = self.E0[:, :2]
        self.bend_tests = (self.P @ T, self.K_xx @ T)
        self._resolvents = {}

    @cached_property
    def order(self):
        """The dof order of the LUs of forms that do not split by parity:
        nested dissection of the graph of M1 (see _dissect), each node's
        three dofs together."""
        graph = self.M1.tocoo()
        nodes = _dissect(self.mesh.node_coords(), graph.row, graph.col)
        return (3 * nodes[:, None] + np.arange(3)).ravel()

    def K(self, chi):
        if chi == 0:
            return self.K_ss.astype(complex)
        return (self.K_ss + chi * self.K_sx + chi ** 2 * self.K_xx).tocsr()

    # -- norms ------------------------------------------------------------

    def norm_sq_parts(self, u, h1=False, chi=0.0, eps=1.0):
        """The squared L2 norms, and with h1 the squared H1 norms, of each
        displacement component of every fiber of u, one fiber (n_dof,) or a
        stack (..., n_dof): the pair (l2, h1) of (..., 3) arrays, h1 None
        without h1. One sparse product per scalar block (M1, and S_hat, S_y
        and C_y with h1) serves the whole stack.

        The longitudinal derivative is measured in the eps-scaled fiber metric
        eps^-2 |d_y u + i chi u|^2, with chi a scalar or one value per fiber
        along the axis before n_dof; the defaults chi = 0, eps = 1 give the
        plain gradient on the product domain.
        """
        u = np.asarray(u, dtype=complex)
        # the nodal values of every fiber and component, as the columns of
        # one (n_nodes, ... x 3) block
        U = np.moveaxis(u.reshape(u.shape[:-1] + (-1, 3)), -2, 0)
        X = U.reshape(len(U), -1)

        def form(A):
            return _form(A, X).reshape(U.shape[1:])
        l2 = form(self.M1)
        if not h1:
            return l2, None
        chi = np.asarray(chi)[..., None]
        dy = form(self.S_y) + chi * form(self.C_y) + chi ** 2 * l2
        return l2, l2 + form(self.S_hat) + dy / eps ** 2

    def norm_sq_l2(self, u, component=None):
        """Squared L2 norm of the displacement components labelled component
        (see COMPONENTS): '12' (in-plane), '3' (out-of-line), or 'all' /
        None, of one fiber or summed over a stack (see norm_sq_parts)."""
        return float(np.sum(self.norm_sq_parts(u)[0][..., COMPONENTS[component]]))

    # -- solvers ----------------------------------------------------------

    @cached_property
    def quotient(self):
        return QuotientSolver(self)

    @cached_property
    def symmetry(self):
        """The cell's group of sign flips {g: node pairing} (symmetry_group)."""
        return symmetry_group(self.profile, self.mesh.cross)

    @property
    def pairing(self):
        """The node pairing of the central inversion (pairing[i] is the node
        at -x_i), or None where the forms do not split by parity."""
        return self.symmetry.get((-1, -1))

    @cached_property
    def parity_basis(self):
        """The ParityBasis of the cell's symmetry group that the forms' LUs
        factorise in, or None where the forms do not split by parity."""
        return None if self.pairing is None else ParityBasis(self, self.symmetry)

    def resolvent(self, chi, t):
        """The ResolventSolver of t K(chi) + M, factorised on first use and
        kept for the lifetime of the forms, one per (chi, t), in the forms'
        parity basis where they split. It holds no reference to the forms,
        so dropping them frees its LU."""
        key = (chi, t)
        if key not in self._resolvents:
            self._resolvents[key] = ResolventSolver(self, chi, t)
        return self._resolvents[key]

    @cached_property
    def one_norms(self):
        """The 1-norms of K_ss, K_sx, K_xx and M, which bound those of K(chi)
        and M in the eigenpair check of smallest_eigs."""
        return tuple(spla.norm(A, 1) for A in (self.K_ss, self.K_sx, self.K_xx, self.M))

    @cached_property
    def cell_basis(self):
        """The cell correctors of the four canonical J-data (see
        homogenize.cell_basis)."""
        return np.array([homogenize.solve_cell(self, m) for m in np.eye(4)])

    @cached_property
    def rod_tensor(self):
        """The effective rod tensor: entry (d, k) of its stiffness is
        int A(J_k + sym-grad u_k) : J_d (see homogenize.rod_tensor)."""
        return homogenize.RodTensor.from_stiffness(self.J_gram + self.Ls.T @ self.cell_basis.T)

    @cached_property
    def moments(self):
        return geometry.compute_moments(self.mesh.cross)

    @cached_property
    def cross_mass(self):
        return geometry.cross_mass(self.mesh.cross)


def _dissect(x, i, j):
    """Nested-dissection order of the nodes at coordinates x (n, d) joined by
    the edges (i, j), given both ways: the nodes below the median of the
    longest coordinate extent go left, and the others with an edge to the
    left are the separator, ordered after both sides. A part of at most 8
    nodes keeps its order: splitting it saves no fill on the meshes in use."""
    if len(x) <= 8:
        return np.arange(len(x))
    c = x[:, np.argmax(x.max(axis=0) - x.min(axis=0))]
    # the least coordinate goes left even where it is the median
    left = (c < np.median(c)) | (c == c.min())
    sep = np.bincount(i[left[j] & ~left[i]], minlength=len(x)) > 0

    def ordered(part):
        keep = part[i] & part[j]
        local = np.cumsum(part) - 1
        return np.flatnonzero(part)[_dissect(x[part], local[i[keep]], local[j[keep]])]
    return np.concatenate([ordered(left), ordered(~(left | sep)), np.flatnonzero(sep)])


# displacement columns of each component label of the error norms
COMPONENTS = {None: slice(0, 3), "all": slice(0, 3), "12": slice(0, 2), "3": slice(2, 3)}


def _form(A, X):
    """x^H A x for each column x of a complex block X, for a Hermitian
    scalar block A: one sparse product, and the real part of each column's
    inner product, which is that of the float64 views of x and A x."""
    AX = A @ X
    parts = np.einsum("nm,nm->m", X.view(np.float64), AX.view(np.float64))
    return parts.reshape(-1, 2).sum(axis=1)


class QuotientSolver:
    """Solves t K_ss u = load, every cell and corrector problem, on the
    rigid-motion quotient. K_ss is taken in the coordinates of the forms'
    ParityBasis Q where they split, as the real block-diagonal Q^T K_ss Q in
    the basis order, else as it is in forms.order. A pivoted QR of the rigid
    motions Z in these coordinates (Z Q) picks four of them to pin, so the
    matrix on the others is real symmetric positive definite; one LU of it
    serves all loads and t. Each rigid motion lies in one class, so the pins
    are one per class of the four mirror classes, and two per parity class.
    The load's M-rigid part M Z^T G^-1 Z load (G = Z M Z^T) is removed
    first, and u, taken back to the dofs, is projected M-orthogonally off Z
    after, which makes u the solution of the saddle system
    [[K_ss, (Z M)^T], [Z M, 0]] for every load. A load is one field (n_dof,)
    or a block (n_dof, k) of them; its k complex columns are the 2k columns
    of one real solve. The solver keeps no reference to the forms.
    """

    def __init__(self, forms):
        Z = self.kernel = forms.kernel_fields
        self.MZ = forms.M @ Z.T
        self.G_inv = np.linalg.inv(Z @ self.MZ)
        basis = forms.parity_basis
        if basis is None:
            self.Q, K, order = None, forms.K_ss, forms.order
        else:
            self.Q, K, order = basis.Q, basis.K_ss, basis.order
            Z = (self.Q.T @ Z.T).T
        pins = sla.qr(Z, mode="r", pivoting=True)[1][:4]
        self.free = np.setdiff1d(np.arange(Z.shape[1]), pins)
        # the order restricted to the free coordinates, as positions among them
        order = np.searchsorted(self.free, order[np.isin(order, self.free)])
        self.lu = factorize(K[self.free][:, self.free], order)

    def solve(self, load, t=1.0):
        """u with t K_ss u = load on the rigid-motion quotient, column by
        column, and the worst kernel residual max |<rigid motion, column>|
        over the columns. A column whose residual is not within
        KERNEL_TOLERANCE of its own norm raises IncompatibleLoad, however
        large the others; so does a column that is not finite."""
        load = np.asarray(load, dtype=complex)
        res = self.kernel @ load
        worst = np.max(np.abs(res.reshape(len(res), -1)), axis=0)
        scale = np.linalg.norm(load.reshape(len(load), -1), axis=0)
        bad = ~((worst <= KERNEL_TOLERANCE * scale) & np.isfinite(scale))
        if np.any(bad):
            raise IncompatibleLoad("load has kernel residual %.3e relative" % np.max(
                worst[bad] / scale[bad]))
        f = load - self.MZ @ (self.G_inv @ res)
        if self.Q is not None:
            f = self.Q.T @ f
        f = f[self.free]
        sol = self.lu.solve(np.column_stack([f.real, f.imag]))
        k = sol.shape[1] // 2
        u = np.zeros(load.shape, dtype=complex)
        u[self.free] = (sol[:, :k] + 1j * sol[:, k:]).reshape(f.shape)
        if self.Q is not None:
            u = self.Q @ u
        u -= self.kernel.T @ (self.G_inv @ (self.MZ.T @ u))
        return u / t, float(np.max(worst))


def assemble(profile, mesh):
    """Assemble the fiber forms for a profile on a product mesh."""
    return AssembledForms(profile, mesh)


def factorize(A, order):
    """Sparse LU of a Hermitian positive definite A in the given order (see
    AssembledForms.order and ParityBasis.order): SuperLU factorises
    A[order][:, order] as it is, in its symmetric mode with diagonal pivots,
    and the OrderedLU returned solves with A. Unpivoted, an indefinite A
    would give wrong solves, so a pivot (diagonal of U) whose real part is
    not positive raises SingularSystem."""
    try:
        lu = spla.splu(sp.csc_matrix(A[order][:, order]), permc_spec="NATURAL",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystem(str(exc))
    pivots = lu.U.diagonal().real
    if not np.all(pivots > 0):
        raise SingularSystem("matrix is not positive definite: pivot %.3e" % pivots.min())
    return OrderedLU(lu, order)


class OrderedLU:
    """SuperLU's lu of A[order][:, order], solving A x = b in A's numbering."""

    def __init__(self, lu, order):
        self.lu, self.order, self.inverse = lu, order, np.argsort(order)

    def solve(self, b):
        return self.lu.solve(b[self.order])[self.inverse]


class ResolventSolver:
    """Factorisation of (t K(chi) + M) for repeated loads; solves
    (t K(chi) + M) u = M f, Hermitian positive definite, no constraints.
    Where the forms split it factorises the block-diagonal matrix of their
    ParityBasis (a ParityLU), else t K(chi) + M in forms.order. The solver
    keeps no reference to the forms."""

    def __init__(self, forms, chi, t):
        self.M = forms.M
        basis = forms.parity_basis
        if basis is None:
            self.lu = factorize(t * forms.K(chi) + forms.M, forms.order)
        else:
            self.lu = ParityLU(factorize(basis.matrix(chi, t), basis.order), basis)

    def solve(self, load_field):
        return self.lu.solve(self.M @ np.asarray(load_field, dtype=complex))


def symmetry_group(profile, cross):
    """The cell's group of sign flips g = (g1, g2) of x-hat, {g: pairing},
    pairing[i] being the cross-section node at (g1 x1, g2 x2) of node i: the
    identity, then in turn the central inversion and the mirrors x1 -> -x1
    and x2 -> -x2, each where the node set (geometry.node_pairing) and every
    layer (material.flip_invariant) of profile on cross are invariant under
    it. Every split reads it. A group without the inversion, such as the
    intertwined material's x2 mirror alone, is cut to the identity: the
    parity regimes and ParityBasis split on the inversion."""
    group = {(1, 1): np.arange(cross.n_nodes)}
    for g in ((-1, -1), (-1, 1), (1, -1)):
        if all(material.flip_invariant(t, g) for _, _, t in profile.layers):
            pairing = geometry.node_pairing(cross, g)
            if pairing is not None:
                group[g] = pairing
    return group if (-1, -1) in group else {(1, 1): group[(1, 1)]}


# the candidate classes of ParityBasis, each a character of the group of
# sign flips g = (g1, g2) of x-hat, given by its signs s = (s1, s2) as
# chi_s(g) = s1^[g1 < 0] s2^[g2 < 0]; the central inversion (-1, -1) takes
# chi_s = s1 s2, -1 on bend and 1 on stretch. Under both mirrors they are
# the bends in the x1 and the x2 plane, extension, torsion; under the
# inversion alone (-1, 1) and (1, 1) stand for bend and stretch
_MIRROR_CLASSES = [(-1, 1), (1, -1), (1, 1), (-1, -1)]


class ParityBasis:
    """The orthogonal basis Q of the symmetry classes of the forms, and the
    forms' operators in it.

    group holds sign flips g of x-hat under which the forms are invariant,
    {g: node pairing} as symmetry_group gives it, the identity first. g acts
    on a field as u -> r_g u(g x-hat), with the component signs r_g =
    (g1, g2, 1). The classes are the group's characters: the first s of
    _MIRROR_CLASSES of each distinct restriction of chi_s to the group. Each
    class has one column per orbit of product-mesh nodes under the group and
    per component c: with a the orbit's representative (its least node),
    sum_g chi_s(g) r_g[c] e_(g(a), c), normalised. It vanishes unless
    chi_s(h) r_h[c] = 1 for every h that fixes a, and is then dropped. Q's
    columns run class by class, by representative and component within
    each: under both mirrors the two bend classes, then extension and
    torsion, so that the bend and stretch parity classes stay contiguous;
    under the inversion alone bend, then stretch. sizes holds the number of
    columns of each class.

    Q^T A Q is block diagonal for A = K_ss, K_sx, K_xx and M: the coupling
    between every two classes is dropped, after a check that it is at most
    1e-12 of each operator's largest entry (PairingMismatch otherwise). The
    basis builds the block K_ss of the cell problems (QuotientSolver) at
    once, and those of K_sx, K_xx and M, on one sparsity pattern with K_ss's
    (blocks), with the first resolvent: building them in set-up made the
    line study's set-up half as long again. It keeps the three operators,
    not the forms, so the forms stay free of reference cycles.

    order, the factorisation order, takes each class in a nested-dissection
    order of the folded mesh (the orbits, joined where any of their nodes
    are, at the coordinates of their representatives, with y in units of
    the mean cross-section element size), class after class. SuperLU makes
    no fill between the blocks.
    """

    def __init__(self, forms, group):
        mesh = forms.mesh
        n_c, n = mesh.cross.n_nodes, mesh.n_dof
        flips = np.array(list(group))
        # the characters, as their values on the flips, in class order
        characters = list(dict.fromkeys(tuple(np.prod(np.where(flips < 0, s, 1), axis=1))
                                        for s in _MIRROR_CLASSES))
        images = np.array(list(group.values()))
        reps = np.flatnonzero(np.arange(n_c) == images.min(axis=0))
        # orbits[g, o]: the product-mesh node g(a) of representative a of orbit o
        layers = np.arange(mesh.n_y)[:, None] * n_c
        orbits = (images[:, None, reps] + layers).reshape(len(group), -1)
        a = orbits[0]
        fold = np.empty(mesh.n_nodes, dtype=int)
        fold[orbits] = np.arange(len(a))
        graph = forms.M1.tocoo()
        # y scaled so that the bisection cuts the axis with the most nodes
        # along it: on the 8x8x16 cell, y has 16 and the section folded
        # by both mirrors 5, and a t K + M block LU keeps 14% fewer L+U
        # entries than with plain coordinates (AssembledForms.order keeps
        # those)
        x = mesh.node_coords()[a] * [1.0, 1.0, mesh.n_y / np.sqrt(len(mesh.cross.elements))]
        nested = _dissect(x, fold[graph.row], fold[graph.col])
        fixes = orbits == a   # g in the stabiliser of the orbit
        # each node of an orbit is entered once per element of its
        # stabiliser, which sums to weight 1 / sqrt(orbit size)
        w = np.sqrt(1.0 / (fixes.sum(axis=0) * len(group)))[:, None]
        r = np.column_stack([flips, np.ones(len(flips))])   # (|G|, 3) component signs
        rows, cols, vals, order = [], [], [], []
        for character in characters:
            coef = np.array(character)[:, None] * r
            keep = fixes.T @ coef > 0
            col = np.full(keep.shape, -1)   # numbered after the classes before
            col[keep] = sum(map(len, order)) + np.arange(keep.sum())
            for node, c in zip(orbits, coef):
                dof = 3 * node[:, None] + np.arange(3)
                rows.append(dof[keep])
                cols.append(col[keep])
                vals.append((c * w)[keep])
            order.append(col[nested][keep[nested]])
        self.Q = RealCSR((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))
        self.order = np.concatenate(order)
        self.sizes = [len(o) for o in order]
        self._cls = np.repeat(np.arange(len(characters)), self.sizes)
        self.K_ss = self.block_diagonal(forms.K_ss, "K_ss")
        # the operators, not the forms, so that the forms hold no cycle
        self._operators = {name: getattr(forms, name) for name in ("K_sx", "K_xx", "M")}

    def block_diagonal(self, A, name):
        """Q^T A Q as block-diagonal CSR: the coupling between every two
        classes is dropped, after a check that it is at most 1e-12 of the
        largest entry (PairingMismatch otherwise)."""
        B = self.Q.T.tocsr() @ (A @ self.Q)
        rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
        off = self._cls[rows] != self._cls[B.indices]
        coupling = np.max(np.abs(B.data[off]), initial=0.0)
        if coupling > 1e-12 * np.max(np.abs(B.data)):
            raise PairingMismatch("%s couples the symmetry classes: %.3e of its largest "
                                  "entry" % (name, coupling / np.max(np.abs(B.data))))
        B.data[off] = 0
        B.eliminate_zeros()
        return B

    @cached_property
    def blocks(self):
        """The data of the blocks of K_ss, K_sx, K_xx and M on the union of
        their patterns, with its CSR indices and indptr, so that the matrix
        of t K(chi) + M is one combination of their data per (chi, t).
        Built on first use: the cell problems need only K_ss."""
        n = self.Q.shape[0]
        blocks = [self.K_ss] + [self.block_diagonal(A, name)
                                for name, A in self._operators.items()]
        keys = [np.repeat(np.arange(n), np.diff(B.indptr)) * n + B.indices for B in blocks]
        # the union of the four patterns, row-major as CSR keeps it, and each
        # block entry's place in it: one sort, half the time of searching it
        union, where = np.unique(np.concatenate(keys), return_inverse=True)
        data = [np.zeros(len(union), dtype=B.dtype) for B in blocks]
        ends = np.cumsum([len(k) for k in keys])[:-1]
        for d, B, part in zip(data, blocks, np.split(where, ends)):
            d[part] = B.data
        return data, union % n, np.searchsorted(union // n, np.arange(n + 1))

    def matrix(self, chi, t):
        """Q^T (t K(chi) + M) Q, block diagonal, as CSR."""
        (ss, sx, xx, m), indices, indptr = self.blocks
        return sp.csr_matrix((t * (ss + chi * sx + chi ** 2 * xx) + m, indices, indptr),
                             shape=self.Q.shape)


class ParityLU:
    """An OrderedLU of the parity-basis matrix Q^T A Q (see ParityBasis),
    solving A x = b in A's numbering: x = Q lu.solve(Q^T b)."""

    def __init__(self, lu, basis):
        self.lu, self.Q = lu, basis.Q

    def solve(self, b):
        return self.Q @ self.lu.solve(self.Q.T @ b)


def smallest_eigs(forms, chi, k):
    """k smallest eigenpairs of K(chi) u = lambda M u via shift-invert about
    sigma = -1/t, on the resolvent LU of the forms: (K(chi) - sigma M)^-1 =
    t (t K(chi) + M)^-1. t = chi^-4 is the bend coupling, whose LU the
    fiber-rate study at the same chi shares; at chi = 0, where K(0) has the
    rigid kernel, sigma = -1e-8 mean |diag K_ss|. In shift-invert mode with
    OPinv given, ARPACK multiplies by M and OPinv only, so K(chi) is not
    assembled: eigsh gets it as an operator of its three parts.

    ARPACK stops at tol 1e-12 on a basis of 2k + 2 vectors (its complex
    mode needs more than k + 1, which 2k is not at k = 1). Its test is
    relative to the shift-inverted eigenvalue 1/(lambda - sigma), so each
    lambda is accurate to about 1e-12 (1 + 1/(t lambda)), two decades
    inside EIG_BACKWARD_TOLERANCE. That check is applied to every returned
    pair: its backward error |K u - lambda M u| / ((|K_ss|_1 +
    |chi| |K_sx|_1 + chi^2 |K_xx|_1 + |lambda| |M|_1) |u|), whose first sum
    bounds |K(chi)|_1, must not exceed EIG_BACKWARD_TOLERANCE, or
    NoConvergence is raised. K u is one product of each part with all the
    eigenvectors, and the 1-norms are the forms' (one_norms), taken once.

    ARPACK starts from the sum of the four rigid motions, which has a part
    in every mirror class (a constant vector has none in torsion), times
    1 + 1e-2 sin(2 pi y), which keeps each class and takes the start out of
    the kernel, an invariant subspace at chi = 0."""
    t = chi ** -4 if chi != 0 else 1.0 / (1e-8 * float(np.abs(forms.K_ss.diagonal()).mean()))
    # eigsh keeps its operators in a reference cycle: they reach no LU but
    # through a weak proxy, and not the forms, so dropping the forms frees
    # their LUs
    lu = weakref.proxy(forms.resolvent(chi, t).lu)
    n = forms.mesh.n_dof
    OPinv = spla.LinearOperator((n, n), matvec=lambda x: t * lu.solve(x), dtype=complex)
    K_ss, K_sx, K_xx = forms.K_ss, forms.K_sx, forms.K_xx
    K = spla.LinearOperator((n, n), dtype=complex, matvec=lambda x: (
        K_ss @ x + chi * (K_sx @ x) + chi ** 2 * (K_xx @ x)))
    # fixed start vector: ARPACK's default is random, which makes the
    # achieved residuals (and bit-stability) run-dependent. The translations
    # lie in the two bend classes, then extension and torsion, so ARPACK
    # reaches every class from the start, not only through rounding
    y = np.repeat(forms.mesh.node_coords()[:, 2], 3)
    v0 = forms.kernel_fields.sum(axis=0) * (1.0 + 1e-2 * np.sin(2.0 * np.pi * y))
    try:
        vals, vecs = spla.eigsh(K, k=k, M=forms.M, sigma=-1.0 / t,
                                which="LM", v0=v0, OPinv=OPinv, tol=1e-12,
                                ncv=min(2 * k + 2, n))
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(str(exc))
    ss, sx, xx, m = forms.one_norms
    k_norm = ss + abs(chi) * sx + chi ** 2 * xx
    Ku = K_ss @ vecs + chi * (K_sx @ vecs) + chi ** 2 * (K_xx @ vecs)
    eta = np.linalg.norm(Ku - forms.M @ vecs * vals, axis=0) / (
        (k_norm + np.abs(vals) * m) * np.linalg.norm(vecs, axis=0))
    if np.max(eta) > EIG_BACKWARD_TOLERANCE:
        raise NoConvergence("eigenpair backward error %.3e at chi = %g exceeds %.0e"
                            % (np.max(eta), chi, EIG_BACKWARD_TOLERANCE))
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def sweep(forms, chi_grid, task, keys):
    """[task(chi) for chi in chi_grid], task run once per distinct chi on a
    pool of SWEEP_THREADS threads. This thread first builds the forms' lazy
    state (the parity basis with its resolvent blocks, or the dof order;
    rod tensor, 1-norms), then factorises
    the resolvents keys(chi) = [(chi, t), ...] of each chi in turn before
    its task starts: scipy's SuperLU frees an LU only on the thread that
    made it. After a failure no chi starts; the pool is joined, then this
    thread's error or else the first task error in grid order is raised."""
    if forms.parity_basis is None:
        forms.order
    else:
        forms.parity_basis.blocks
    forms.rod_tensor, forms.one_norms
    stop = threading.Event()

    def run(chi):
        if stop.is_set():
            return None   # skipped after an earlier failure, never returned
        try:
            return task(chi)
        except BaseException:
            stop.set()
            raise

    pool, futures = ThreadPoolExecutor(max_workers=SWEEP_THREADS), {}
    try:
        for chi in dict.fromkeys(chi_grid):
            if stop.is_set():
                break
            for key in keys(chi):
                forms.resolvent(*key)
            futures[chi] = pool.submit(run, chi)
        results = {chi: future.result() for chi, future in futures.items()}
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
    return [results[chi] for chi in chi_grid]


# the character of each parity class on the central inversion
_INVERSION_CHARACTER = {"bend": -1.0, "stretch": 1.0}


def parity_project(v, which, pairing):
    """Bend (u-hat even, u3 odd) or stretch (the complement) parity part,
    under x-hat -> -x-hat, of an array laid out as (..., n_cross, 3);
    pairing[i] is the cross-section node at -x_i. It is ParityBasis's group
    average 0.5 (v + chi r v(-x-hat)) over the identity and the inversion,
    with the class's character chi and the component signs r = (-1, -1, 1)."""
    if which not in _INVERSION_CHARACTER:
        raise ValueError("which must be 'bend' or 'stretch'")
    r = _INVERSION_CHARACTER[which] * np.array([-1.0, -1.0, 1.0])
    return 0.5 * (v + r * v[..., pairing, :])


def project_symmetry(u, which, mesh, pairing):
    """Parity projection (see parity_project) of a field on whole
    cross-section slabs: a product-mesh vector, or one slab of it."""
    cross = mesh.cross
    if np.max(np.abs(cross.nodes[pairing] + cross.nodes)) > 1e-8:
        raise PairingMismatch("pairing does not map nodes to their negatives")
    v = np.asarray(u).reshape(-1, cross.n_nodes, 3)
    return parity_project(v, which, pairing).reshape(-1)
