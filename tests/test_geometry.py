import numpy as np
import pytest

from rodhom.geometry import (CrossSectionMesh, ProductMesh, build_rectangle, compute_moments,
                             is_centrally_symmetric)

from support_embedding import C_bend, C_rod_chi
from support_quadrature import quad_areas, total_area


def test_unit_square_mesh():
    m = build_rectangle(1.0, 8, 8)
    assert len(m.elements) == 64
    assert abs(total_area(m) - 1.0) < 1e-12
    assert np.max(np.abs(m.nodes)) <= 0.5 + 1e-14


def test_aspect_scaling():
    m = build_rectangle(2.0, 8, 8)
    assert abs(total_area(m) - 1.0) < 1e-12
    width = m.nodes[:, 0].max() - m.nodes[:, 0].min()
    height = m.nodes[:, 1].max() - m.nodes[:, 1].min()
    assert abs(width - np.sqrt(2.0)) < 1e-12
    assert abs(height - 1 / np.sqrt(2.0)) < 1e-12


def test_degenerate_counts_rejected():
    with pytest.raises(ValueError):
        build_rectangle(1.0, 1, 8)
    # a count that is not an integer is rejected, not truncated
    with pytest.raises(ValueError, match="^nx must be an integer >= 2, not 2.5"):
        build_rectangle(1.0, 2.5, 4)
    with pytest.raises(ValueError, match="^aspect must be a positive number"):
        build_rectangle("1", 4, 4)
    with pytest.raises(ValueError, match="^n_y must be an integer >= 2, not 8.7"):
        ProductMesh(build_rectangle(1.0, 2, 2), 8.7)


@pytest.mark.parametrize("elements, match", [
    (lambda e: e[:, :3], "shape"),
    (lambda e: e.ravel(), "shape"),
    (lambda e: np.where(e == 4, 9, e), r"\[0, 9\)"),
    (lambda e: np.where(e == 0, -1, e), r"\[0, 9\)"),
], ids=["triangles", "flat", "index_past_end", "negative_index"])
def test_malformed_elements_rejected_at_mesh(elements, match):
    # without the check, triangles built and then failed inside cross_mass
    # and fem.assemble, an index past the end failed in numpy indexing, and a
    # negative one wrapped round to the last node
    cross = build_rectangle(1.0, 2, 2)
    with pytest.raises(ValueError, match=match):
        CrossSectionMesh(cross.nodes, elements(cross.elements))


def test_clockwise_element_rejected_at_mesh():
    # the shoelace area of a clockwise element is negative; its absolute value
    # is not, so only the corner Jacobians show the orientation
    cross = build_rectangle(1.0, 2, 2)
    elements = cross.elements.copy()
    elements[2] = elements[2][::-1]
    with pytest.raises(ValueError, match="element 2"):
        CrossSectionMesh(cross.nodes, elements)


def test_first_moments_vanish():
    m = build_rectangle(1.5, 6, 4)
    # element-exact by symmetry of the construction
    centroid = np.mean(m.nodes[m.elements].mean(axis=1) * quad_areas(m)[:, None], axis=0)
    assert np.max(np.abs(centroid)) < 1e-12


def test_moments_unit_square():
    m = build_rectangle(1.0, 8, 8)
    md = compute_moments(m)
    assert abs(md.c1 - 1 / 12) < 1e-12
    assert abs(md.c2 - 1 / 12) < 1e-12
    assert np.allclose(md.C_stretch, np.diag([1 / 6, 1.0]), atol=1e-12)


def test_moments_aspect_analytic():
    for aspect in [0.5, 1.0, 2.0, 3.0]:
        m = build_rectangle(aspect, 6, 6)
        md = compute_moments(m)
        assert abs(md.c1 - aspect / 12) < 1e-12
        assert abs(md.c2 - 1 / (12 * aspect)) < 1e-12


@pytest.mark.parametrize("move", [lambda x: x + [0.1, -0.05], lambda x: 1.1 * x],
                         ids=["shifted", "scaled"])
def test_moments_reject_unnormalised_section(move):
    # MomentData and the embeddings assume area 1 and centred first moments
    m = build_rectangle(1.0, 4, 4)
    with pytest.raises(ValueError, match="not normalised"):
        compute_moments(CrossSectionMesh(move(m.nodes), m.elements))


def test_moment_matrices():
    md = compute_moments(build_rectangle(1.0, 4, 4))
    assert np.allclose(C_bend(md, 0.0), np.eye(2))
    chi = 0.3
    assert np.allclose(C_bend(md, chi),
                       np.diag([1 + chi ** 2 / 12, 1 + chi ** 2 / 12]))
    C = C_rod_chi(md, chi)
    assert np.all(np.linalg.eigvalsh(C) > 0)
    assert np.allclose(C[2:, 2:], md.C_stretch)


def test_central_symmetry_detected():
    m = build_rectangle(1.0, 4, 4)
    ok, pairing = is_centrally_symmetric(m)
    assert ok
    assert np.max(np.abs(m.nodes[pairing] + m.nodes)) < 1e-12


def test_central_symmetry_broken_by_shift():
    m = build_rectangle(1.0, 4, 4)
    m.nodes[:, 0] += 0.1
    ok, pairing = is_centrally_symmetric(m)
    assert not ok and pairing is None


def test_product_mesh_layout():
    cross = build_rectangle(1.0, 3, 3)
    pm = ProductMesh(cross, 4)
    assert pm.n_nodes == cross.n_nodes * 4
    coords = pm.node_coords()
    assert np.allclose(np.unique(coords[:, 2]), -0.5 + np.arange(4) / 4)
    # node q * n_cross + i is cross-section node i on y-level q
    assert np.array_equal(coords[cross.n_nodes + 2], [*cross.nodes[2], pm.y_nodes[1]])
