"""scripts/route_counts.py, whose counts CI writes to each run's step summary, runs here too.

Its spies replace numpy functions and private names of altproj by name, so a renamed name fails
here rather than only in a CI log.
"""

import importlib.util
from pathlib import Path

import numpy as np

from altproj import dynamics

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "route_counts.py"
spec = importlib.util.spec_from_file_location("route_counts", SCRIPT)
route_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(route_counts)


def test_one_line_per_analysis_and_every_spy_restored(capsys):
    replaced = (np.linalg.eigh, np.linalg.cholesky, np.linalg.solve, np.linalg.svd, np.dot, dynamics._power_blocks,
                dynamics._gram_chunks)
    assert route_counts.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    # each later stack of the cyclic vector walk is one product of 31 rows, the last of the 8 left
    assert lines[-3].endswith(": 33 stacks; by shape: (31, 64): 32, (8, 64): 1")
    # the desk-size walk scans the prefix products of its chunks, the dense one takes one np.dot a step
    assert lines[-2].endswith(": 0 np.dot, 32 chunks")
    assert lines[-1].endswith(": 999 np.dot, 32 chunks")
    assert (np.linalg.eigh, np.linalg.cholesky, np.linalg.solve, np.linalg.svd, np.dot, dynamics._power_blocks,
            dynamics._gram_chunks) == replaced
