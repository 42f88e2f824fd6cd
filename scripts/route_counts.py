#!/usr/bin/env python3
"""Count the linear-algebra calls of a few fixed analyses, which show the routes they take.

Usage: PYTHONPATH=src python scripts/route_counts.py

One line each, as CI writes them to every run's step summary (reported, not a gate):

* the eigh, cholesky and solve calls of one `angle_report` on two closing systems,
  random_system(192, (64, 64, 64), 0) and random_system(400, (5, 5, 5), 2), and on a
  duality-gap system that runs every phase of the inclination loop;
* the svd calls of one `bound_report(n_max=100)` on random_system(192, (64, 64, 64), 0),
  by input order (the smaller side): the operator trace takes the SVDs of thin heads once
  the powers lose rank;
* the stacks of a 1000-pass cyclic walk on random_system(192, (64, 64, 64), 3), by shape:
  each stack after the first is one product of a stack of rows with ((K W)^b)^T;
* the np.dot calls and chunks of a 1000-step random walk, window 5, on random_system(9,
  (3, 3, 3), 0) and random_system(192, (64, 64, 64), 0): blocks up to
  `dynamics._SCANNED_ORDER` scan each chunk's prefix products, larger ones take one np.dot
  a step.

The spies wrap numpy's functions, `dynamics._power_blocks` and `dynamics._gram_chunks` by
name, so a renamed private name fails here, and each is restored on exit.
"""

import contextlib
import sys

import numpy as np

from altproj import dynamics
from altproj.angles import angle_report
from altproj.corpus import common_core, random_system
from altproj.diagnostics import bound_report


@contextlib.contextmanager
def spying(owner, name: str, spy):
    """Replace owner.name by spy(original) for the duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, spy(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def counting(calls: list):
    """A spy that appends the smaller side of each call's first argument to `calls`."""
    def spy(fn):
        def call(a, *args, **kwargs):
            calls.append(min(np.shape(a)[-2:], default=0))
            return fn(a, *args, **kwargs)
        return call
    return spy


def recording(values: list, read):
    """A spy on a walk that appends read(stack) to `values` for each stack the walk yields."""
    def spy(walk):
        def spied(*args):
            for stack in walk(*args):
                values.append(read(stack))
                yield stack
        return spied
    return spy


def main() -> int:
    eigh, cholesky, solve = [], [], []
    with contextlib.ExitStack() as stack:
        for name, calls in (("eigh", eigh), ("cholesky", cholesky), ("solve", solve)):
            stack.enter_context(spying(np.linalg, name, counting(calls)))
        for build, args in ((random_system, (192, (64, 64, 64), 0)), (random_system, (400, (5, 5, 5), 2)),
                            (common_core, (8, (3, 4, 3), 2, 1))):
            system = build(*args)
            for calls in (eigh, cholesky, solve):
                calls.clear()
            angle_report(system)
            print(f"angle_report on {build.__name__}{args}: {len(eigh)} eigh, {len(cholesky)} cholesky, "
                  f"{len(solve)} solve")
    system, orders = random_system(192, (64, 64, 64), 0), []
    with spying(np.linalg, "svd", counting(orders)):
        bound_report(system, n_max=100)
    print(f"bound_report(n_max=100) on random_system(192, (64, 64, 64), 0): {len(orders)} svd, "
          f"largest input order {max(orders)}; calls by order: "
          + ", ".join(f"{order}: {orders.count(order)}" for order in sorted(set(orders), reverse=True)))
    dots, chunks, stacks = [], [], []
    with spying(dynamics, "_power_blocks", recording(stacks, np.shape)):
        x0 = np.random.default_rng(0).standard_normal(192)
        dynamics.iterate_vector(random_system(192, (64, 64, 64), 3), x0, dynamics.IndexSchedule.cyclic(3), 1000)
    print(f"cyclic walk of 1000 passes on random_system(192, (64, 64, 64), 3): {len(stacks)} stacks; by shape: "
          + ", ".join(f"{shape}: {stacks.count(shape)}" for shape in sorted(set(stacks), reverse=True)))
    with spying(np, "dot", counting(dots)), spying(dynamics, "_gram_chunks", recording(chunks, len)):
        for args in ((9, (3, 3, 3), 0), (192, (64, 64, 64), 0)):
            system = random_system(*args)
            dots.clear()
            chunks.clear()
            schedule = dynamics.IndexSchedule.random(3, seed=0, coverage_window=5)
            dynamics.iterate_vector(system, np.ones(args[0]), schedule, 1000)
            print(f"random walk of 1000 steps, window 5, on random_system{args}: {len(dots)} np.dot, "
                  f"{len(chunks)} chunks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
