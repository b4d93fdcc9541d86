"""Geometry and skeleton construction tests.

Reference values here (edge counts, free-node sets, clipped lengths) were
derived by hand from the definitions and are frozen; the sampling oracle
rebuilds the clipped grid lines pointwise and must agree with the skeleton.
"""
import math

import pytest

from trefftz_dd.errors import GeometryError, GeometryNotSnapped, PartitionMismatch
from trefftz_dd.geometry import (
    CoarsePartition,
    PerforatedDomain,
    Rect,
    build_skeleton,
    cell_extent,
    load_geometry,
    refine_edges,
    save_geometry,
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
    interior = [e for e in skel.edges if not e.on_dirichlet]
    boundary = [e for e in skel.edges if e.on_dirichlet]
    assert len(interior) == 4 and len(boundary) == 8
    assert skel.H == pytest.approx(0.5)
    assert len(skel.nodes) == 9
    free = [n for n in skel.nodes if not n.constrained]
    assert len(free) == 1
    assert free[0].position == pytest.approx((0.5, 0.5))
    # every interior edge borders exactly two cells, boundary edges one
    assert all(len(e.cells) == 2 for e in interior)
    assert all(len(e.cells) == 1 for e in boundary)


def test_lshape_3x3_skeleton():
    domain, part = lshape()
    skel = build_skeleton(domain, part)
    interior = [e for e in skel.edges if not e.on_dirichlet]
    assert len(interior) == 10
    free = sorted(n.position for n in skel.nodes if not n.constrained)
    third = 1.0 / 3.0
    expect = sorted([(-third, -third), (-third, third), (third, -third),
                     (third, 0.0), (0.0, third)])
    assert len(free) == len(expect)
    for got, want in zip(free, expect):
        assert got == pytest.approx(want, abs=1e-12)
    # the re-entrant contact nodes are free, the outer-boundary contacts are not
    by_pos = {tuple(round(c, 9) for c in n.position): n for n in skel.nodes}
    assert by_pos[(round(third, 9), 0.0)].kind == "perforation-contact"
    assert not by_pos[(round(third, 9), 0.0)].constrained
    assert by_pos[(1.0, 0.0)].constrained
    assert by_pos[(0.0, 1.0)].constrained


def test_cell_adjacency_lshape():
    domain, part = lshape()
    skel = build_skeleton(domain, part)
    # cell 8 (upper-right) is fully perforated: no edge may reference it
    assert all(8 not in e.cells for e in skel.edges)
    # the edge x=1/3, y in (-1,-1/3) separates cells 1 and 2
    for e in skel.edges:
        (xa, ya), (xb, yb) = skel.edge_points(e)
        if abs(xa - 1 / 3) < 1e-12 and abs(xb - 1 / 3) < 1e-12 and max(ya, yb) <= -1 / 3 + 1e-12:
            assert sorted(e.cells) == [1, 2]


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

    for axis, lines in (("v", part.x_lines()), ("h", part.y_lines())):
        for coord in lines:
            have = sum(
                skel.edge_length(e) for e in skel.edges
                if all(abs((p[0] if axis == "v" else p[1]) - coord) < 1e-12
                       for p in skel.edge_points(e))
            )
            want = sampled_open_length(domain, axis, coord, 0.0, 6.0)
            assert have == pytest.approx(want, abs=2 * 6.0 / 20001)


def test_full_cell_perforation():
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(1 / 3, 1 / 3, 2 / 3, 2 / 3),))
    skel = build_skeleton(domain, CoarsePartition(outer, 3, 3))
    interior = [e for e in skel.edges if not e.on_dirichlet]
    assert len(interior) == 8
    assert all(4 not in e.cells for e in skel.edges)
    # blocked interval endpoints coincide with cell corners: no extra nodes
    assert all(n.kind == "cell-corner" for n in skel.nodes)


def test_refine_edges():
    domain, part = lshape()
    skel = build_skeleton(domain, part)
    ref = refine_edges(skel, 2)
    assert len(ref.edges) == 4 * len(skel.edges)
    assert (sum(ref.edge_length(e) for e in ref.edges)
            == pytest.approx(sum(skel.edge_length(e) for e in skel.edges), rel=1e-12))
    assert ref.H == pytest.approx(skel.H / 4)
    # original nodes keep ids, split nodes are appended
    for i, n in enumerate(skel.nodes):
        assert ref.nodes[i].position == n.position
    assert all(n.kind == "refinement-split" for n in ref.nodes[len(skel.nodes):])
    # children inherit parent interface and level
    assert all(e.refinement_level == 2 for e in ref.edges)
    parents = {e.parent_interface for e in skel.edges}
    assert {e.parent_interface for e in ref.edges} == parents
    # split nodes interior to a Dirichlet parent edge are constrained
    for e in ref.edges:
        if e.on_dirichlet:
            assert all(ref.nodes[i].constrained for i in e.endpoints)
    assert sum(not n.constrained for n in ref.nodes) == 5 + 10 * (4 - 1)
    assert refine_edges(skel, 0) is skel


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
