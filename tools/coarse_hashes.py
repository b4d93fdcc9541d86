"""sha256 of the coarse-space arrays of fixed configurations, as one JSON file.

    PYTHONPATH=<tree>/src python3 tools/coarse_hashes.py OUT.json

The configurations are those of the benchmark's lshape-graded and
urban-n256 workloads: the L-shape at pitch 1/60, graded 6 rounds toward
the reentrant corner, 3 x 3 cells, with the exact solution as Dirichlet
data, at p 1-2 x r 0-2; and the seed-1 city (640 m, pitch 2.5, 24
buildings, 12 walls or none) on 16 x 16 cells with a unit load, at p = 1,
r = 0.  Per configuration the file holds the hashes of the trace basis T,
its labels, the Trefftz R and, where the space has one, `lift_full`: a
sparse matrix hashes the bytes of its `indptr`, `indices` and `data`, in
that order, the labels their `repr`, `lift_full` its bytes.
`tools/compare_outputs.py` runs this script on each tree it compares.
"""
import hashlib
import json
import sys

import numpy as np

CORNER = np.array([[0.0, 0.0]])


def digest(*parts):
    """sha256 hex digest of the bytes of `parts` (arrays or str), in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def space_hashes(td, mesh, system, skeleton, p, cache):
    """The hashes of one Trefftz space and its trace basis."""
    basis = td.coarse.build_trace_basis(mesh, skeleton, p, cache)
    space = td.build_trefftz(mesh, system, skeleton, p, cache)
    out = {name: digest(m.indptr, m.indices, m.data)
           for name, m in (("T", basis.T), ("R", space.R))}
    out["labels"] = digest(repr(basis.labels))
    if space.lift_full is not None:
        out["lift_full"] = digest(space.lift_full)
    return out


def coarse_hashes():
    """Configuration name -> {"T", "labels", "R"[, "lift_full"]: hex digest}."""
    import trefftz_dd as td

    out = {}
    domain = td.lshape_domain()
    part = td.CoarsePartition(domain.outer, 3, 3)
    mesh = td.refine_toward(td.generate_structured(domain, part, 1.0 / 60.0), CORNER, 6)
    system = td.assemble(mesh, g=lambda points: td.exact_lshape(points)[0])
    skeleton = td.build_skeleton(domain, part)
    cache = td.build_cell_cache(mesh, system, skeleton)
    for p in (1, 2):
        for r in (0, 1, 2):
            out["lshape-graded p%d r%d" % (p, r)] = space_hashes(
                td, mesh, system, td.refine_edges(skeleton, r), p, cache)
    for label, n_walls in (("walls", 12), ("nowalls", 0)):
        domain = td.generate_urban_synthetic(1, 640.0, 2.5, 24, n_walls)
        part = td.CoarsePartition(domain.outer, 16, 16)
        mesh = td.generate_structured(domain, part, 2.5)
        system = td.assemble(mesh, f=lambda points: np.ones(len(points)))
        skeleton = td.build_skeleton(domain, part)
        cache = td.build_cell_cache(mesh, system, skeleton)
        out["urban-n256 %s p1" % label] = space_hashes(td, mesh, system, skeleton, 1, cache)
    return out


if __name__ == "__main__":
    with open(sys.argv[1], "w") as f:
        json.dump(coarse_hashes(), f, indent=1)
        f.write("\n")
