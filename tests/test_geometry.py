"""Geometry and skeleton construction tests.

Reference values here (edge counts, free-node sets, clipped lengths) were
derived by hand from the definitions and are frozen; the sampling oracle
rebuilds the clipped grid lines pointwise and must agree with the skeleton.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from trefftz_dd.errors import GeometryError, GeometryNotSnapped, PartitionMismatch
from trefftz_dd.experiments import generate_urban_synthetic
from trefftz_dd.geometry import (
    CoarsePartition,
    PerforatedDomain,
    Rect,
    build_skeleton,
    cell_extent,
    load_geometry,
    refine_edges,
    save_geometry,
    snap,
    snap_point,
)


def lshape():
    """(-1,1)^2 with the upper-right quadrant removed."""
    outer = Rect(-1.0, -1.0, 1.0, 1.0)
    return PerforatedDomain(outer, (Rect(0.0, 0.0, 1.0, 1.0),)), CoarsePartition(outer, 3, 3)


def test_rect_from_vertices_any_orientation():
    quad = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
    r = Rect.from_vertices(quad)
    assert (r.x0, r.y0, r.x1, r.y1) == (0.0, 0.0, 2.0, 1.0)
    r2 = Rect.from_vertices(quad[::-1])
    assert r == r2
    with pytest.raises(GeometryNotSnapped):
        Rect.from_vertices([(0, 0), (1, 0), (1.5, 1), (0, 1)])
    with pytest.raises(GeometryNotSnapped):
        Rect.from_vertices([(0, 0), (1, 0), (1, 1)])


def test_rect_degenerate_rejected():
    with pytest.raises(GeometryError):
        Rect(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(GeometryError):
        Rect(0.0, 2.0, 1.0, 1.0)


def test_domain_validation():
    outer = Rect(0.0, 0.0, 4.0, 4.0)
    with pytest.raises(GeometryError):
        PerforatedDomain(outer, (Rect(3.0, 3.0, 5.0, 3.5),))  # sticks out
    with pytest.raises(GeometryError):  # closures touch
        PerforatedDomain(outer, (Rect(1.0, 1.0, 2.0, 2.0), Rect(2.0, 1.0, 3.0, 2.0)))
    # disjoint closures are fine
    PerforatedDomain(outer, (Rect(1.0, 1.0, 2.0, 2.0), Rect(2.5, 1.0, 3.0, 2.0)))


def test_partition_cells_row_major():
    part = CoarsePartition(Rect(0.0, 0.0, 3.0, 2.0), 3, 2)
    assert part.n_cells == 6
    c4 = part.cell(4)  # ix=1, iy=1
    assert (c4.x0, c4.y0, c4.x1, c4.y1) == (1.0, 1.0, 2.0, 2.0)
    assert cell_extent(part, 4) == 1.0
    with pytest.raises(IndexError):
        part.cell(6)
    with pytest.raises(IndexError):
        part.cell(-1)


def test_unit_square_2x2_skeleton():
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, ())
    skel = build_skeleton(domain, CoarsePartition(outer, 2, 2))
    interior = ~skel.on_dirichlet
    assert interior.sum() == 4 and skel.on_dirichlet.sum() == 8
    assert skel.H == pytest.approx(0.5)
    assert len(skel.points) == 9
    free = skel.points[~skel.constrained]
    assert len(free) == 1
    assert tuple(free[0]) == pytest.approx((0.5, 0.5))
    # every interior edge borders exactly two cells, boundary edges one
    sides = (skel.cells >= 0).sum(axis=1)
    assert (sides[interior] == 2).all() and (sides[~interior] == 1).all()
    assert (skel.cells[~interior, 1] == -1).all()


def test_lshape_3x3_skeleton():
    domain, part = lshape()
    skel = build_skeleton(domain, part)
    assert (~skel.on_dirichlet).sum() == 10
    free = sorted(map(tuple, skel.points[~skel.constrained].tolist()))
    third = 1.0 / 3.0
    expect = sorted([(-third, -third), (-third, third), (third, -third),
                     (third, 0.0), (0.0, third)])
    assert len(free) == len(expect)
    for got, want in zip(free, expect):
        assert got == pytest.approx(want, abs=1e-12)
    # the re-entrant contact nodes are free, the outer-boundary contacts are not
    by_pos = {tuple(round(c, 9) for c in p): i for i, p in enumerate(skel.points.tolist())}
    assert not skel.constrained[by_pos[(round(third, 9), 0.0)]]
    assert skel.constrained[by_pos[(1.0, 0.0)]]
    assert skel.constrained[by_pos[(0.0, 1.0)]]


def test_cell_adjacency_lshape():
    domain, part = lshape()
    skel = build_skeleton(domain, part)
    # cell 8 (upper-right) is fully perforated: no edge may reference it
    assert not (skel.cells == 8).any()
    # the edge x=1/3, y in (-1,-1/3) separates cells 1 and 2
    a, b = skel.points[skel.ends.T]
    on = ((np.abs(a[:, 0] - 1 / 3) < 1e-12) & (np.abs(b[:, 0] - 1 / 3) < 1e-12)
          & (np.maximum(a[:, 1], b[:, 1]) <= -1 / 3 + 1e-12))
    assert on.sum() == 1
    assert sorted(skel.cells[on][0]) == [1, 2]


def _lengths(skel):
    a, b = skel.points[skel.ends.T]
    return np.hypot(*(b - a).T)


def sampled_open_length(domain, axis, coord, lo, hi, n=20001):
    """Pointwise oracle: measure of the line piece outside all perforation closures."""
    inside = 0
    for k in range(n):
        t = lo + (hi - lo) * (k + 0.5) / n
        x, y = (coord, t) if axis == "v" else (t, coord)
        if not any(p.x0 <= x <= p.x1 and p.y0 <= y <= p.y1 for p in domain.perforations):
            inside += 1
    return (hi - lo) * inside / n


def test_skeleton_lengths_match_sampling_oracle():
    outer = Rect(0.0, 0.0, 6.0, 6.0)
    domain = PerforatedDomain(outer, (
        Rect(1.0, 1.0, 2.0, 3.0),
        Rect(4.0, 2.0, 5.0, 5.0),
        Rect(2.0, 4.5, 3.5, 5.5),
    ))
    part = CoarsePartition(outer, 3, 3)
    skel = build_skeleton(domain, part)

    a, b = skel.points[skel.ends.T]
    for axis, lines in ((0, part.x_lines()), (1, part.y_lines())):
        for coord in lines:
            on = (np.abs(a[:, axis] - coord) < 1e-12) & (np.abs(b[:, axis] - coord) < 1e-12)
            want = sampled_open_length(domain, "vh"[axis], coord, 0.0, 6.0)
            assert _lengths(skel)[on].sum() == pytest.approx(want, abs=2 * 6.0 / 20001)


def test_full_cell_perforation():
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(1 / 3, 1 / 3, 2 / 3, 2 / 3),))
    part = CoarsePartition(outer, 3, 3)
    skel = build_skeleton(domain, part)
    assert (~skel.on_dirichlet).sum() == 8
    assert not (skel.cells == 4).any()
    # blocked interval endpoints coincide with cell corners: no extra nodes
    corners = {(snap(x), snap(y)) for x in part.x_lines() for y in part.y_lines()}
    assert {snap_point(p) for p in skel.points.tolist()} <= corners


def test_refine_edges():
    domain, part = lshape()
    skel = build_skeleton(domain, part)
    ref = refine_edges(skel, 2)
    assert len(ref.ends) == 4 * len(skel.ends)
    assert _lengths(ref).sum() == pytest.approx(_lengths(skel).sum(), rel=1e-12)
    assert ref.H == pytest.approx(skel.H / 4)
    # original nodes keep ids, split nodes are appended
    assert np.array_equal(ref.points[:len(skel.points)], skel.points)
    # children inherit their parent's side and cells, and count the level
    assert (skel.level, ref.level, refine_edges(ref, 1).level) == (0, 2, 3)
    assert np.array_equal(ref.on_dirichlet, np.repeat(skel.on_dirichlet, 4))
    assert np.array_equal(ref.cells, np.repeat(skel.cells, 4, axis=0))
    # split nodes interior to a Dirichlet parent edge are constrained
    assert ref.constrained[ref.ends[ref.on_dirichlet]].all()
    assert (~ref.constrained).sum() == 5 + 10 * (4 - 1)
    assert refine_edges(skel, 0) is skel
    with pytest.raises(GeometryError):
        refine_edges(skel, -1)


@given(seed=st.integers(0, 2 ** 16), nx=st.sampled_from((1, 2, 4, 8)),
       ny=st.sampled_from((1, 2, 4, 8)), walls=st.sampled_from((0, 1)),
       levels=st.integers(0, 3))
def test_refined_skeleton_invariants_on_urban(seed, nx, ny, walls, levels):
    domain = generate_urban_synthetic(seed, extent=32.0, pitch=1.0, n_buildings=3,
                                      n_walls=walls)
    skel = build_skeleton(domain, CoarsePartition(domain.outer, nx, ny))
    ref = refine_edges(skel, levels)
    n, m, k = len(skel.points), len(skel.ends), 2 ** levels
    assert len(ref.points) == n + m * (k - 1) and len(ref.ends) == m * k
    # no two nodes snap to one point, so refinement needs no dedupe
    assert len({snap_point(p) for p in ref.points.tolist()}) == len(ref.points)
    assert np.array_equal(np.flatnonzero(ref.constrained),
                          np.unique(ref.ends[ref.on_dirichlet]))
    # each parent edge's children chain from its a to its b
    chains = ref.ends.reshape(m, k, 2)
    assert np.array_equal(chains[:, 0, 0], skel.ends[:, 0])
    assert np.array_equal(chains[:, 1:, 0], chains[:, :-1, 1])
    assert np.array_equal(chains[:, -1, 1], skel.ends[:, 1])


def test_partition_mismatch():
    domain, _ = lshape()
    with pytest.raises(PartitionMismatch):
        build_skeleton(domain, CoarsePartition(Rect(-1.0, -1.0, 1.0, 2.0), 3, 3))


def test_geometry_json_roundtrip(tmp_path):
    domain, part = lshape()
    path = tmp_path / "geom.json"
    save_geometry(domain, part, path)
    domain2, part2 = load_geometry(path)
    assert domain2 == domain
    assert (part2.nx, part2.ny) == (part.nx, part.ny)
    assert part2.outer == part.outer
