"""Heterogeneous elasticity tensors and periodic layered profiles.

Tensors are stored as 6x6 stiffness matrices in the engineering (Voigt)
convention with strain ordering (e11, e22, e33, 2*e23, 2*e13, 2*e12), so that
the elastic energy density is e^T C e for the engineering strain vector e.
"""

import numpy as np

from .checks import is_number, require

# Mandel weights turning the engineering matrix into the symmetric-matrix
# quadratic form: eigenvalues of P^T C P are the eigenvalues of the map
# E -> A E on symmetric matrices.
_MANDEL = np.diag([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])


class ElasticityTensor:
    """A constant rank-4 stiffness tensor with minor and major symmetries,
    held as its 6x6 engineering (Voigt) matrix."""

    def __init__(self, voigt):
        C = np.asarray(voigt, dtype=float)
        if C.shape != (6, 6):
            raise ValueError("expected a 6x6 stiffness matrix")
        # enforce major symmetry exactly
        self.voigt = 0.5 * (C + C.T)


def make_isotropic(lam, mu):
    """Isotropic stiffness with Lame parameters (lam, mu).

    Contraction with a symmetric strain E gives lam*tr(E)*I + 2*mu*E.
    """
    if mu <= 0 or 3 * lam + 2 * mu <= 0:
        raise ValueError("isotropic parameters must satisfy mu > 0 and 3*lambda + 2*mu > 0")
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[:3, :3] += 2 * mu * np.eye(3)
    C[3:, 3:] = mu * np.eye(3)
    return ElasticityTensor(C)


def check_coercivity(t):
    """Smallest eigenvalue of the stiffness as a quadratic form on symmetric matrices.

    Positive iff the tensor is coercive; the (possibly negative) value is
    returned unchanged so the caller can decide what to do with it.
    """
    mandel = _MANDEL @ t.voigt @ _MANDEL
    return float(np.linalg.eigvalsh(mandel)[0])


def check_rod_material_symmetry(t):
    """True iff the in-plane/axial shear couplings forbidden for rod problems
    vanish (to 1e-12).

    The forbidden entries are A_{ijk3} and A_{i333} with i, j, k in {1, 2},
    which in Voigt indices are the rows {11, 22, 33, 12} against the columns
    {23, 13}.
    """
    rows = [0, 1, 2, 5]
    cols = [3, 4]
    block = t.voigt[np.ix_(rows, cols)]
    return bool(np.max(np.abs(block)) <= 1e-12)


class MaterialProfile:
    """A y-periodic piecewise-constant stiffness profile on Y = [-1/2, 1/2).

    layers: list of (a, b, ElasticityTensor) with half-open intervals [a, b)
    that partition [-1/2, 1/2) exactly. Every tensor must be coercive: the
    fiber forms are positive definite only then.
    """

    def __init__(self, layers):
        layers = sorted(layers, key=lambda t: t[0])
        if not layers:
            raise ValueError("profile needs at least one layer")
        if abs(layers[0][0] + 0.5) > 1e-14 or abs(layers[-1][1] - 0.5) > 1e-14:
            raise ValueError("layers must cover [-1/2, 1/2)")
        for (a0, b0, _), (a1, _, _) in zip(layers, layers[1:]):
            if abs(b0 - a1) > 1e-14:
                raise ValueError("layers must be contiguous and disjoint")
        for a, b, t in layers:
            nu = check_coercivity(t)
            if nu <= 0:
                raise ValueError("layer [%g, %g) is not coercive: smallest "
                                 "eigenvalue %.3g" % (a, b, nu))
        self.layers = [(float(a), float(b), t) for a, b, t in layers]

    def evaluate(self, y):
        """Stiffness at y, with exact 1-periodic extension.

        A point on a layer interface resolves to the layer on its right
        (half-open convention).
        """
        yw = y - np.floor(y + 0.5)  # wrap into [-1/2, 1/2)
        for a, b, t in self.layers:
            if a - 1e-14 <= yw < b - 1e-14:
                return t
        # numerical wrap can land at 0.5 - tiny; the last layer owns it
        return self.layers[-1][2]

    @staticmethod
    def constant(tensor):
        return MaterialProfile([(-0.5, 0.5, tensor)])


def _entry(obj, key, where, want, ok):
    """obj[key] of a JSON object; ValueError naming the dotted key where.key
    if it is missing or ok(value) is false."""
    name = "%s.%s" % (where, key)
    if key not in obj:
        raise ValueError("%s is missing" % name)
    return require(name, obj[key], want, ok)


def _voigt(v):
    return isinstance(v, list) and len(v) == 6 and all(
        isinstance(row, list) and len(row) == 6 and all(map(is_number, row)) for row in v)


def profile_from_json(obj):
    """Build a MaterialProfile from the JSON layer schema of the config's
    material object.

    Schema: {"layers": [{"from": a, "to": b, "model": {"isotropic": {"lambda":
    l, "mu": m}}}, {"from": ..., "to": ..., "model": {"voigt": [[...]]}}]}.
    A missing or malformed entry raises ValueError naming its dotted key,
    such as material.layers[0].model.
    """
    layers = []
    for i, lay in enumerate(_entry(obj, "layers", "material", "a list",
                                   lambda v: isinstance(v, list))):
        where = "material.layers[%d]" % i
        require(where, lay, "an object", lambda v: isinstance(v, dict))
        a, b = (_entry(lay, end, where, "a number", is_number) for end in ("from", "to"))
        model = _entry(lay, "model", where, "an object holding isotropic or voigt",
                       lambda m: isinstance(m, dict) and ("isotropic" in m or "voigt" in m))
        where += ".model"
        if "isotropic" in model:
            p = _entry(model, "isotropic", where, "an object", lambda v: isinstance(v, dict))
            lam, mu = (_entry(p, k, where + ".isotropic", "a number", is_number)
                       for k in ("lambda", "mu"))
            t = make_isotropic(lam, mu)
        else:
            t = ElasticityTensor(_entry(model, "voigt", where, "a 6x6 list of numbers", _voigt))
        layers.append((a, b, t))
    return MaterialProfile(layers)
