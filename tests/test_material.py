import numpy as np
import pytest
from hypothesis import given, strategies as st

from rodhom.material import (ElasticityTensor, MaterialProfile, check_coercivity,
                             flip_invariant, make_isotropic, profile_from_json)

from support_symmetry import GROUP_ORDER, tensor_invariant


def engineering(E):
    """The engineering Voigt vector (e11, e22, e33, 2e23, 2e13, 2e12) of a
    symmetric strain matrix."""
    return np.array([E[0, 0], E[1, 1], E[2, 2], 2 * E[1, 2], 2 * E[0, 2], 2 * E[0, 1]])


def test_isotropic_contraction_trace():
    t = make_isotropic(1.0, 1.0)
    assert np.allclose(t.voigt @ engineering(np.eye(3)), [5, 5, 5, 0, 0, 0])


def test_isotropic_contraction_shear():
    # the stress is 2 mu E, whose Voigt vector holds sigma_12 = 2 in slot 12
    t = make_isotropic(1.0, 1.0)
    E = np.zeros((3, 3))
    E[0, 1] = E[1, 0] = 1.0
    assert np.allclose(t.voigt @ engineering(E), [0, 0, 0, 0, 0, 2])


def test_isotropic_lambda_zero():
    t = make_isotropic(0.0, 0.5)
    assert np.allclose(np.diag(t.voigt)[:3], 1.0)
    E = np.zeros((3, 3))
    E[1, 2] = E[2, 1] = 0.3
    assert np.allclose(t.voigt @ engineering(E), [0, 0, 0, 0.3, 0, 0])


def test_isotropic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_isotropic(1.0, 0.0)
    with pytest.raises(ValueError):
        make_isotropic(-1.0, 1.0)


def test_coercivity_isotropic():
    # oracle: eigenvalues of the isotropic map on symmetric matrices are
    # {2 mu (x5), 3 lambda + 2 mu}
    assert abs(check_coercivity(make_isotropic(1.0, 1.0)) - 2.0) < 1e-12
    assert abs(check_coercivity(make_isotropic(0.0, 1.0)) - 2.0) < 1e-12


def test_coercivity_identity_map():
    # engineering matrix of the identity map on symmetric matrices
    C = np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
    assert abs(check_coercivity(ElasticityTensor(C)) - 1.0) < 1e-12


@given(st.floats(0.1, 10), st.floats(0.1, 10))
def test_coercivity_matches_min_formula(lam, mu):
    nu = check_coercivity(make_isotropic(lam, mu))
    assert abs(nu - min(2 * mu, 3 * lam + 2 * mu)) < 1e-10 * max(1.0, mu, lam)


# rod material symmetry is invariance under the central inversion
INVERSION = (-1, -1)


def test_rod_symmetry_isotropic():
    assert flip_invariant(make_isotropic(1.0, 1.0), INVERSION)


def test_rod_symmetry_violated():
    C = make_isotropic(1.0, 1.0).voigt.copy()
    C[0, 4] = C[4, 0] = 0.1  # A_1113 coupling
    assert not flip_invariant(ElasticityTensor(C), INVERSION)


def test_rod_symmetry_allows_1323():
    C = np.zeros((6, 6))
    C[3, 4] = C[4, 3] = 1.0  # A_1323 is not on the forbidden list
    assert flip_invariant(ElasticityTensor(C), INVERSION)


@pytest.mark.parametrize("entry, mirrors", [
    (None, (True, True)),
    ((0, 5), (False, False)),   # e11 with 2e12
    ((3, 4), (False, False)),   # 2e23 with 2e13
    ((0, 3), (True, False)),    # e11 with 2e23: odd in x2 only
    ((2, 4), (False, True)),    # e33 with 2e13: odd in x1 only
])
def test_mirror_symmetry(entry, mirrors):
    C = make_isotropic(1.0, 1.0).voigt.copy()
    if entry is not None:
        C[entry] = C[entry[::-1]] = 0.1
    # the mirrors x1 -> -x1 and x2 -> -x2
    assert tuple(flip_invariant(ElasticityTensor(C), signs)
                 for signs in ((-1, 1), (1, -1))) == mirrors


@pytest.mark.parametrize("seed", range(20))
def test_flip_invariant_matches_the_flipped_rank4_tensor(seed):
    # an isotropic tensor with a random symmetric set of entries perturbed
    # by 0.1, 1e-11 or 1e-13: flip_invariant agrees, for every flip, with
    # the flip written out on the rank-4 tensor, whose entries it keeps to
    # within 1e-12 exactly where the tensor is invariant
    rng = np.random.default_rng(seed)
    C = make_isotropic(1.0, 1.0).voigt.copy()
    for i, j in zip(*np.triu_indices(6)):
        if rng.random() < 0.15:
            C[i, j] = C[j, i] = C[i, j] + rng.choice([0.1, 1e-11, 1e-13]) * rng.choice([-1, 1])
    t = ElasticityTensor(C)
    for signs in GROUP_ORDER:
        assert flip_invariant(t, signs) == tensor_invariant(t, signs)
    assert flip_invariant(t, (1, 1))


def test_profile_periodic_evaluation():
    t1 = make_isotropic(1.0, 1.0)
    t2 = make_isotropic(5.0, 5.0)
    p = MaterialProfile([(-0.5, 0.0, t1), (0.0, 0.5, t2)])
    assert p.evaluate(0.75) is p.evaluate(-0.25)
    assert p.evaluate(0.3) is p.evaluate(1.3)


def test_profile_half_open_interface():
    t1 = make_isotropic(1.0, 1.0)
    t2 = make_isotropic(5.0, 5.0)
    p = MaterialProfile([(-0.5, 0.0, t1), (0.0, 0.5, t2)])
    assert p.evaluate(0.0) is t2


def test_profile_constant():
    t = make_isotropic(2.0, 1.0)
    p = MaterialProfile.constant(t)
    for y in [-0.5, -0.1, 0.0, 0.49, 7.3]:
        assert p.evaluate(y) is t


def test_profile_rejects_gaps():
    t = make_isotropic(1.0, 1.0)
    with pytest.raises(ValueError):
        MaterialProfile([(-0.5, -0.1, t), (0.0, 0.5, t)])


def test_profile_from_json():
    C = make_isotropic(2.0, 3.0).voigt
    obj = {"layers": [
        {"from": -0.5, "to": 0.0, "model": {"isotropic": {"lambda": 1.0, "mu": 1.0}}},
        {"from": 0.0, "to": 0.5, "model": {"voigt": C.tolist()}},
    ]}
    p = profile_from_json(obj)
    assert np.allclose(p.evaluate(-0.25).voigt, make_isotropic(1.0, 1.0).voigt)
    assert np.allclose(p.evaluate(0.25).voigt, C)


def test_profile_rejects_non_coercive_layer():
    assert check_coercivity(ElasticityTensor(-np.eye(6))) < 0
    with pytest.raises(ValueError, match="not coercive"):
        MaterialProfile.constant(ElasticityTensor(-np.eye(6)))
    with pytest.raises(ValueError, match="not coercive"):
        MaterialProfile([(-0.5, 0.0, make_isotropic(1.0, 1.0)),
                         (0.0, 0.5, ElasticityTensor(np.zeros((6, 6))))])
