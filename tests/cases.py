"""Shared seeded corpora for the invariant and acceptance suites."""

import numpy as np

from altproj.corpus import common_core, example3, random_system, tilted_pairs, two_lines
from altproj.subspace import Subspace, SubspaceSystem

PAIR_DIMS = [(3, 4), (2, 5), (4, 4), (3, 3)]
CORE_DIMS = [(3, 4, 3), (2, 3, 4), (3, 3, 3)]


def coordinate_axes(d=3):
    """The d coordinate axes of R^d, a pairwise orthogonal system."""
    eye = np.eye(d)
    return SubspaceSystem(tuple(Subspace(d, eye[:, [j]], f"S{j + 1}") for j in range(d)))


def random_pairs_r8(count=20):
    return [random_system(8, PAIR_DIMS[s % len(PAIR_DIMS)], seed=s) for s in range(count)]


def random_triples_r9(count=20):
    return [random_system(9, (3, 3, 3), seed=s) for s in range(count)]


def common_core_batch(count=10):
    out = []
    for s in range(count):
        dims = CORE_DIMS[s % len(CORE_DIMS)]
        out.append(common_core(8, dims, core_dim=1 + s % 2, seed=s))
    return out


def grid_corpus():
    """20 systems with ambient dimension <= 4 and complement dimension <= 3.

    Small enough for the exhaustive sphere-grid inclination oracle.
    """
    systems = []
    for theta in (0.05, 0.15, 0.35, 0.6, 0.9, 1.2, np.pi / 2):
        systems.append((f"lines({theta:.2f})", two_lines(theta)))
    for s in (0, 1):
        systems.append((f"pair3-11-{s}", random_system(3, (1, 1), seed=s)))
    for s in (2, 3):
        systems.append((f"triple3-111-{s}", random_system(3, (1, 1, 1), seed=s)))
    systems.append(("triple3-211", random_system(3, (2, 1, 1), seed=4)))
    for s in (5, 6):
        systems.append((f"pair3-21-{s}", random_system(3, (2, 1), seed=s)))
    for s in (7, 8):
        systems.append((f"pair3-22-{s}", random_system(3, (2, 2), seed=s)))
    for s in (0, 1):
        systems.append((f"core4-22-{s}", common_core(4, (2, 2), 1, seed=s)))
    systems.append(("core4-222", common_core(4, (2, 2, 2), 1, seed=2)))
    systems.append(("core4-32", common_core(4, (3, 2), 1, seed=3)))
    return systems


def convergence_corpus():
    """Well-conditioned systems for the fixed-horizon convergence suites."""
    systems = [
        ("example3", example3(12)),
        ("lines(pi/3)", two_lines(np.pi / 3)),
        ("lines(0.3)", two_lines(0.3)),
        ("tilted3", tilted_pairs(3)),
        ("axes", coordinate_axes(3)),
    ]
    for s in range(5):
        systems.append((f"triple9-{s}", random_system(9, (3, 3, 3), seed=s)))
    for s in range(3):
        systems.append((f"core8-{s}", common_core(8, CORE_DIMS[s % len(CORE_DIMS)], 1, seed=s)))
    return systems


def inclination_corpus():
    """167 systems with N >= 3 for the inclination's dual bound: builders, as some are large.

    The symmetric examples, random and common-core triples and quadruples,
    and small triples and quadruples of which several have a duality gap.
    """
    systems = [("example3", lambda: example3(12)), ("axes", lambda: coordinate_axes(3))]
    systems += [(f"triple9-{s}", lambda s=s: random_system(9, (3, 3, 3), seed=s)) for s in range(65)]
    systems += [(f"quad12-{s}", lambda s=s: random_system(12, (3, 3, 3, 3), seed=s)) for s in range(50)]
    systems += [(f"core8-{k}-{s}", lambda k=k, s=s: common_core(8, (3, 4, 3), k, seed=s))
                for k in (1, 2) for s in range(10)]
    systems += [(f"core10-{s}", lambda s=s: common_core(10, (4, 4, 4, 4), 1, seed=s)) for s in range(10)]
    systems += [(f"quad10-{s}", lambda s=s: random_system(10, (3, 3, 3, 3), seed=s)) for s in range(100, 110)]
    systems += [(f"triple6-{s}", lambda s=s: random_system(6, (2, 2, 2), seed=s)) for s in range(100, 110)]
    return systems


def large_pencil_corpus():
    """30 systems whose dual pencil has order r = sum dim R_j >= 24: (name, builder, whether the gap closes).

    On 26 the top eigenvalue at the dual minimum is simple and the gap closes
    to check_tol; on the other four it stays open.
    """
    closing = [(f"triple{3 * m}-{s}", lambda m=m, s=s: random_system(3 * m, (m, m, m), seed=s))
               for m in (8, 12, 16, 32) for s in range(4)]
    closing += [(f"core{3 * m + 2}-{s}", lambda m=m, s=s: common_core(3 * m + 2, (m + 1,) * 3, 1, seed=s))
                for m in (10, 20) for s in range(3)]
    closing += [(f"quad{4 * m}-{s}", lambda m=m, s=s: random_system(4 * m, (m,) * 4, seed=s))
                for m in (8, 16) for s in (0, 1)]
    open_gap = [(f"many{6 * n}-{n}-0", lambda n=n: random_system(6 * n, (3,) * n, seed=0)) for n in (10, 20)]
    open_gap += [(f"quad{4 * m}-2", lambda m=m: random_system(4 * m, (m,) * 4, seed=2)) for m in (8, 16)]
    return [(name, build, True) for name, build in closing] + [(name, build, False) for name, build in open_gap]


def every_system():
    """Every corpus above as (name, builder) pairs."""
    built = [(f"pairs-{i}", s) for i, s in enumerate(random_pairs_r8())]
    built += [(f"triples-{i}", s) for i, s in enumerate(random_triples_r9())]
    built += [(f"batch-{i}", s) for i, s in enumerate(common_core_batch())]
    built += [(f"grid-{name}", s) for name, s in grid_corpus()]
    built += [(f"conv-{name}", s) for name, s in convergence_corpus()]
    builders = [(name, lambda s=s: s) for name, s in built]
    return builders + [(f"incl-{name}", build) for name, build in inclination_corpus()]
