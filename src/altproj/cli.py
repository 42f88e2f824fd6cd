"""Command-line surface: system files in JSON, iteration traces in CSV.

Subcommands:

* ``gen``        emit a system file for a named corpus family
* ``angles``     angle parameters of a system file, as JSON
* ``iterate``    per-pass or per-step error trace of a projection iteration
* ``bounds``     margins of every applicable convergence bound, as JSON
* ``probe-slow`` finite-horizon slow-convergence construction

Each JSON report is the library's report dataclass (`AngleReport`,
`BoundReport` with its `BoundCheck` entries, `SlowProbeResult`), one key per
field, named as the field but for the two that _KEYS renames.  Per-iteration
arrays stay out: a probe's trace, and a bound check's `measured` and `bound`
unless scalar, when they come last; so does an unset `max_abs_deviation`, and
a bound report puts `degenerate` first.  `--trace` writes curves as CSV.
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
from .dynamics import ConvergenceTrace, IndexSchedule, SlowSequence, iterate_vector, slow_vector_probe
from .numerics import NumericalFailure, _count
from .subspace import Subspace, SubspaceSystem

__all__ = ["main", "load_system", "dump_system"]

MAX_DIM = 2**14  # largest "dim" of a system file, a sanity bound: no command forms a d x d matrix
MAX_COUNT = 10**7  # largest --iters or --horizon, a sanity bound: 80 MB of float64 errors
_KEYS = {"pairwise_dixmier_reduced": "pairwise", "prefix_friedrichs": "prefix"}  # report field -> JSON key


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
    dim, entries = _count(doc["dim"], "dim", 1, MAX_DIM), doc["subspaces"]
    if not isinstance(entries, list):
        raise ValueError('"subspaces" must be a list of objects')
    subs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError('each subspace must be an object with "name" and "vectors"')
        vectors = entry.get("vectors", [])
        if not isinstance(vectors, list):
            raise ValueError('"vectors" must be a list of vector rows')
        if not all(isinstance(row, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                                 for x in row) for row in vectors):
            raise ValueError("every vector row must be a list of numbers")
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


def _write_json(report, path: str | None) -> None:
    """Write a report dataclass as JSON, one key per field by the rule of the module docstring."""

    def plain(value):  # json.dumps' hook for what it cannot write: numpy values and dataclasses
        if not dataclasses.is_dataclass(value):
            return value.tolist()
        doc = {_KEYS.get(f.name, f.name): getattr(value, f.name) for f in dataclasses.fields(value)
               if f.name != "trace"}
        if "measured" in doc:  # a bound check: its curves come last if scalar, its deviation only if set
            curves = {key: doc.pop(key) for key in ("measured", "bound")}
            if doc["max_abs_deviation"] is None:
                del doc["max_abs_deviation"]
            doc.update(curves if np.ndim(curves["measured"]) == 0 else {})
        return {"degenerate": doc.pop("degenerate"), **doc} if "entries" in doc else doc

    _write_output(json.dumps(report, indent=2, default=plain), path)


def _write_trace(path: str | None, trace: ConvergenceTrace) -> None:
    columns = [trace.errors, *trace.bounds.values()]
    lines = [",".join(["n", "measured", *trace.bounds])]
    lines += [",".join([str(int(n)), *(repr(float(col[i])) for col in columns)]) for i, n in enumerate(trace.steps)]
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
    if ambient is not None:  # refused before anything is built
        _count(ambient, "ambient dimension", 1, MAX_DIM)
    _write_output(dump_system(build(args)), args.output)
    return 0


def _cmd_angles(args) -> int:
    _write_json(angle_report(_read_system(args.system)), args.output)
    return 0


def _cmd_iterate(args) -> int:
    if args.coverage_window is not None and args.order != "random":
        raise ValueError("--coverage-window needs --order random")
    if args.indices is not None and args.order != "explicit":
        raise ValueError("--indices needs --order explicit")
    system = _read_system(args.system)
    schedule = IndexSchedule(kind=args.order, n_subspaces=system.n_subspaces,
                             seed=args.seed if args.order == "random" else None,
                             coverage_window=args.coverage_window,
                             indices=args.indices and _parse_int_list(args.indices, "--indices"))
    if args.x0 == "random":
        x0 = np.random.default_rng(_count(args.seed, "seed", 0)).standard_normal(system.ambient_dim)
    else:
        x0 = np.array([float(part) for part in args.x0.split(",")])
    _write_trace(args.trace, iterate_vector(system, x0, schedule, args.iters))
    return 0


def _cmd_bounds(args) -> int:
    report = bound_report(_read_system(args.system), n_max=args.iters)
    _write_json(report, args.output)
    if args.trace:
        # corMain (absent on degenerate systems) and DeHu share the trace ||T^n - P_M||, n = 1..iters
        curves = [check for check in report.entries if check.name in ("corMain", "DeHu")]
        _write_trace(args.trace, ConvergenceTrace(np.arange(1, len(curves[0].measured) + 1), curves[0].measured,
                                                  {check.name: check.bound for check in curves}))
    return 0


def _cmd_probe_slow(args) -> int:
    _count(2 * args.k, "ambient dimension 2k", 1, MAX_DIM)
    if args.seq.startswith("pow:"):
        seq = SlowSequence.power(float(args.seq.split(":", 1)[1]))
    elif args.seq == "log":
        seq = SlowSequence.log()
    elif args.seq.startswith("file:"):
        with open(args.seq.split(":", 1)[1], "r", encoding="utf-8") as handle:
            seq = SlowSequence.explicit([float(tok) for tok in handle.read().split()])
    else:
        raise ValueError(f"unknown --seq form {args.seq!r}; use pow:<p>, log or file:<path>")
    result = slow_vector_probe(1.0 / np.arange(1, args.k + 1), seq, args.horizon)
    _write_json(result, args.output)
    if args.trace:
        _write_trace(args.trace, result.trace)
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
