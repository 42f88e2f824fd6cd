"""Command-line surface: system files in JSON, iteration traces in CSV.

Subcommands:

* ``gen``        emit a system file for a named corpus family
* ``angles``     angle parameters of a system file, as JSON
* ``iterate``    per-pass or per-step error trace of a projection iteration
* ``bounds``     margins of every applicable convergence bound, as JSON
* ``probe-slow`` finite-horizon slow-convergence construction

All commands are deterministic given their flags.  Exit codes: 0 success or
informative outcome, 1 usage error (bad flags or malformed input, including
a count above MAX_COUNT or an ambient dimension above MAX_DIM), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .angles import angle_report
from .corpus import common_core, example3, random_system, tilted_pairs, two_lines
from .diagnostics import bound_report
from .dynamics import IndexSchedule, SlowSequence, iterate_vector, slow_vector_probe
from .numerics import NumericalFailure
from .subspace import Subspace, SubspaceSystem

__all__ = ["main", "load_system", "dump_system"]

MAX_DIM = 2**14  # largest "dim" of a system file, a sanity bound: no command forms a d x d matrix
MAX_COUNT = 10**7  # largest --iters or --horizon, a sanity bound: 80 MB of float64 errors


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def dump_system(system: SubspaceSystem) -> str:
    """Serialize a system to the JSON schema used by every subcommand.

    The document is {"dim": d, "subspaces": [{"name", "vectors"}]} with one
    spanning vector per row; bases round-trip exactly.
    """
    doc = {
        "dim": system.ambient_dim,
        "subspaces": [
            {"name": s.name, "vectors": [list(map(float, row)) for row in s.basis.T]}
            for s in system.subspaces
        ],
    }
    return json.dumps(doc, indent=2)


def load_system(text: str) -> SubspaceSystem:
    """Parse a system file; spanning sets are orthonormalized on load."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "subspaces" not in doc:
        raise ValueError('system file needs "dim" and "subspaces" keys')
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError('"dim" must be an integer')
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must lie in 1..{MAX_DIM}, got {dim}")
    entries = doc["subspaces"]
    if not isinstance(entries, list) or len(entries) < 2:
        raise ValueError("system file needs at least two subspaces")
    subs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError('each subspace must be an object with "name" and "vectors"')
        vectors = entry.get("vectors", [])
        if not isinstance(vectors, list):
            raise ValueError('"vectors" must be a list of vector rows')
        for row in vectors:
            if not isinstance(row, list) or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in row):
                raise ValueError("every vector row must be a list of numbers")
            if len(row) != dim:
                raise ValueError("every vector row must have length dim")
        subs.append(Subspace.from_vectors(vectors, ambient_dim=dim, name=str(entry.get("name", ""))))
    return SubspaceSystem(tuple(subs))


def _read_system(path: str) -> SubspaceSystem:
    with open(path, "r", encoding="utf-8") as handle:
        return load_system(handle.read())


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _write_trace(path: str | None, steps, measured, bounds: dict) -> None:
    header = ["n", "measured", *bounds.keys()]
    lines = [",".join(header)]
    columns = [np.asarray(measured, dtype=float)] + [np.asarray(v, dtype=float) for v in bounds.values()]
    for i, n in enumerate(steps):
        row = [str(int(n))] + [repr(float(col[i])) for col in columns]
        lines.append(",".join(row))
    _write_output("\n".join(lines), path)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated list of integers") from exc


_FAMILIES = {  # --family -> (the flags it requires, its builder)
    "example3": ((), lambda a: example3() if a.dim is None else example3(a.dim)),
    "two-lines": (("--theta",), lambda a: two_lines(a.theta)),
    "tilted": (("--k",), lambda a: tilted_pairs(a.k)),
    "random": (("--dim", "--dims"), lambda a: random_system(a.dim, a.dims, a.seed)),
    "common-core": (("--dim", "--dims", "--core-dim"), lambda a: common_core(a.dim, a.dims, a.core_dim, a.seed)),
}


def _cmd_gen(args) -> int:
    args.dims = _parse_int_list(args.dims, "--dims") if args.dims else None
    needs, build = _FAMILIES[args.family]
    missing = [flag for flag in needs if getattr(args, flag[2:].replace("-", "_")) is None]
    if missing:
        raise ValueError(f"{args.family} needs {' and '.join(missing)}")
    ambient = 2 * args.k if args.family == "tilted" else args.dim
    if ambient is not None and ambient > MAX_DIM:  # refused before anything is built
        raise ValueError(f"ambient dimension must lie in 1..{MAX_DIM}, got {ambient}")
    _write_output(dump_system(build(args)), args.output)
    return 0


def _cmd_angles(args) -> int:
    system = _read_system(args.system)
    report = angle_report(system)
    payload = {
        "c0": report.c0,
        "c": report.c,
        "kappa0": report.kappa0,
        "kappa": report.kappa,
        "pairwise": [[float(v) for v in row] for row in report.pairwise_dixmier_reduced],
        "prefix": [float(v) for v in report.prefix_friedrichs],
        "inclination": None if report.inclination is None else dataclasses.asdict(report.inclination),
        "degenerate": report.degenerate,
    }
    _write_output(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_iterate(args) -> int:
    if args.coverage_window is not None and args.order != "random":
        raise ValueError("--coverage-window needs --order random")
    if args.indices is not None and args.order != "explicit":
        raise ValueError("--indices needs --order explicit")
    system = _read_system(args.system)
    n = system.n_subspaces
    if args.order == "cyclic":
        schedule = IndexSchedule.cyclic(n)
    elif args.order == "random":
        schedule = IndexSchedule.random(n, seed=args.seed, coverage_window=args.coverage_window)
    else:
        if not args.indices:
            raise ValueError("explicit order needs --indices")
        schedule = IndexSchedule.explicit(_parse_int_list(args.indices, "--indices"), n)
    if args.x0 == "random":
        rng = np.random.default_rng(args.seed)
        x0 = rng.standard_normal(system.ambient_dim)
    else:
        x0 = np.array([float(part) for part in args.x0.split(",")])
        if x0.shape[0] != system.ambient_dim:
            raise ValueError("--x0 coordinates must match the ambient dimension")
    trace = iterate_vector(system, x0, schedule, args.iters)
    _write_trace(args.trace, trace.steps, trace.errors, trace.bounds)
    return 0


def _cmd_bounds(args) -> int:
    system = _read_system(args.system)
    report = bound_report(system, n_max=args.iters)
    entries = []
    for check in report.entries:
        entry = {
            "name": check.name,
            "margin": check.margin,
            "satisfied": check.satisfied,
            "note": check.note,
        }
        if check.max_abs_deviation is not None:
            entry["max_abs_deviation"] = check.max_abs_deviation
        if np.ndim(check.measured) == 0:
            entry["measured"] = float(check.measured)
            entry["bound"] = float(check.bound)
        entries.append(entry)
    payload = {"degenerate": report.degenerate, "entries": entries}
    _write_output(json.dumps(payload, indent=2), args.output)
    if args.trace:
        # corMain (absent on degenerate systems) and DeHu share the trace ||T^n - P_M||, n = 1..iters
        curves = [check for check in report.entries if check.name in ("corMain", "DeHu")]
        measured = curves[0].measured
        _write_trace(args.trace, range(1, len(measured) + 1), measured,
                     {check.name: check.bound for check in curves})
    return 0


def _cmd_probe_slow(args) -> int:
    if 2 * args.k > MAX_DIM:
        raise ValueError(f"ambient dimension must lie in 1..{MAX_DIM}, got 2 * k = {2 * args.k}")
    if args.seq.startswith("pow:"):
        seq = SlowSequence.power(float(args.seq.split(":", 1)[1]))
    elif args.seq == "log":
        seq = SlowSequence.log()
    elif args.seq.startswith("file:"):
        with open(args.seq.split(":", 1)[1], "r", encoding="utf-8") as handle:
            seq = SlowSequence.explicit([float(tok) for tok in handle.read().split()])
    else:
        raise ValueError(f"unknown --seq form {args.seq!r}; use pow:<p>, log or file:<path>")
    angles = 1.0 / np.arange(1, args.k + 1)
    result = slow_vector_probe(angles, seq, args.horizon)
    payload = {
        "x": [float(v) for v in result.x],
        "success": result.success,
        "achieved_horizon": result.achieved_horizon,
    }
    _write_output(json.dumps(payload, indent=2), args.output)
    if args.trace:
        _write_trace(args.trace, result.trace.steps, result.trace.errors, result.trace.bounds)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="altproj", description="subspace angles and alternating-projection diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a system file for a named family")
    gen.add_argument("--family", required=True, choices=list(_FAMILIES))
    gen.add_argument("--dim", type=int, help="ambient dimension")
    gen.add_argument("--theta", type=float, help="angle in radians (two-lines)")
    gen.add_argument("--k", type=int, help="number of tilted blocks")
    gen.add_argument("--dims", help="comma-separated subspace dimensions")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--core-dim", type=int, help="dimension of the forced common core")
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    ang = sub.add_parser("angles", help="angle parameters of a system file")
    ang.add_argument("system")
    ang.add_argument("-o", "--output")
    ang.set_defaults(func=_cmd_angles)

    it = sub.add_parser("iterate", help="projection-iteration error trace")
    it.add_argument("system")
    it.add_argument("--order", choices=["cyclic", "random", "explicit"], default="cyclic")
    it.add_argument("--seed", type=int, default=0)
    it.add_argument("--coverage-window", type=int)
    it.add_argument("--indices", help="comma-separated 1-based indices for explicit order")
    it.add_argument("--x0", default="random", help='"random" or comma-separated coordinates')
    it.add_argument("--iters", type=int, default=100)
    it.add_argument("--trace", help="CSV output path (stdout when omitted)")
    it.set_defaults(func=_cmd_iterate)

    bnd = sub.add_parser("bounds", help="convergence-bound margins")
    bnd.add_argument("system")
    bnd.add_argument("--iters", type=int, default=100)
    bnd.add_argument("--trace", help="CSV path for the per-iteration bound curves")
    bnd.add_argument("-o", "--output")
    bnd.set_defaults(func=_cmd_bounds)

    probe = sub.add_parser("probe-slow", help="finite-horizon slow-convergence probe")
    probe.add_argument("--k", type=int, required=True)
    probe.add_argument("--seq", default="pow:0.5", help="pow:<p>, log, or file:<path>")
    probe.add_argument("--horizon", type=int, required=True)
    probe.add_argument("--trace", help="CSV path for the error-versus-target trace")
    probe.add_argument("-o", "--output")
    probe.set_defaults(func=_cmd_probe_slow)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag in ("iters", "horizon"):  # refused before anything is allocated
        if getattr(args, flag, 0) > MAX_COUNT:
            parser.error(f"--{flag} must be at most {MAX_COUNT}")
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"altproj: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"altproj: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
