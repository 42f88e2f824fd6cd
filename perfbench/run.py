"""altproj benchmark: one closed-loop caller, end-to-end or per-layer metrics.

Run from the root of a checkout; nothing needs installing:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The harness generates every input from --seed, passes only those inputs to
the public API of ``altproj`` (imported from ``src/``) or to
``python -m altproj.cli``, checks every output, and starts each operation
only after the previous one has finished.  It runs whole passes over the
workload's systems: at least two, then more while they fit in --seconds.
Times are scaled to a reference speed (see workloads.kernel_seconds).  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs an
untraced half and a traced half and prints the per-layer metrics.  The last line of standard output is
one JSON object; the full result, and with --trace 1 the spans, are written
under perfbench/out/.  The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# At d=192, two BLAS threads made bound_report slower (1.19-1.33 s) than one
# (0.95-1.04 s), and the machine is shared, so every library call runs on one.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# a thin pass takes about 15 s; two give the reference kernel enough samples
MIN_PASSES = 2
# seconds of in-process dichotomy_report runs in the cli workload
VERDICT_SECONDS = 2.0
PROCESS_REPEATS = 5

END_TO_END = {
    "setup_s": "s", "analysis_s": "s", "systems_per_s": "1/s", "angles_s": "s",
    "bounds_s": "s", "verdict_s": "s", "iterate_s": "s", "peak_rss_mb": "MB",
}
# per-layer metric -> (span name, field); fields are per analysed system
SPAN_METRICS = {
    "numerics.operator_norm.calls": ("numerics.operator_norm", "calls"),
    "numerics.operator_norm.s": ("numerics.operator_norm", "self_s"),
    "numerics.operator_norm.work": ("numerics.operator_norm", "work"),
    "numerics.principal_eigenspace.s": ("numerics.principal_eigenspace", "self_s"),
    "numerics.orthonormalize.s": ("numerics.orthonormalize", "self_s"),
    "numerics.restricted_min_singular.s": ("numerics.restricted_min_singular", "self_s"),
    "subspace.intersection_of.calls": ("subspace.intersection_of", "calls"),
    "subspace.intersection_of.s": ("subspace.intersection_of", "self_s"),
    "subspace.orthogonal_complement.calls": ("subspace.orthogonal_complement", "calls"),
    "subspace.orthogonal_complement.s": ("subspace.orthogonal_complement", "self_s"),
    "angles.inclination.calls": ("angles.inclination", "calls"),
    "angles.inclination.s": ("angles.inclination", "self_s"),
    "angles.dixmier_number.s": ("angles.dixmier_number", "self_s"),
    "angles.configuration_constant.calls": ("angles.configuration_constant", "calls"),
    "angles.pairwise_dixmier_reduced.s": ("angles.pairwise_dixmier_reduced", "self_s"),
    "angles.prefix_friedrichs.s": ("angles.prefix_friedrichs", "self_s"),
    "dynamics.operator_error_norms.calls": ("dynamics.operator_error_norms", "calls"),
    "dynamics.operator_error_norms.powers": ("dynamics.operator_error_norms", "work"),
    "dynamics.operator_error_norms.s": ("dynamics.operator_error_norms", "self_s"),
    "dynamics.reduced_min_modulus.s": ("dynamics.reduced_min_modulus", "self_s"),
    "dynamics.iterate_vector.s": ("dynamics.iterate_vector", "self_s"),
    "dynamics.slow_vector_probe.s": ("dynamics.slow_vector_probe", "self_s"),
    "diagnostics.KW.s": ("diagnostics.kw_check", "self_s"),
    "diagnostics.corMain.s": ("diagnostics.cor_main_check", "self_s"),
    "diagnostics.DeHu.s": ("diagnostics.dehu_check", "self_s"),
    "diagnostics.estimC.s": ("diagnostics.estimc_check", "self_s"),
    "diagnostics.eqNorm.s": ("diagnostics.eq_norm_check", "self_s"),
    "diagnostics.eqQua.s": ("diagnostics.eq_qua_check", "self_s"),
    "diagnostics.remarkK.s": ("diagnostics.remark_product_check", "self_s"),
    "diagnostics.bound_report.s": ("diagnostics.bound_report", "self_s"),
    "diagnostics.dichotomy_report.s": ("diagnostics.dichotomy_report", "self_s"),
}
FAMILIES = ("example3", "two_lines", "tilted_pairs", "random_system", "common_core")
PER_LAYER = {
    **{name: ("s" if name.endswith(".s") else "count") for name in SPAN_METRICS},
    "subspace.build_s": "s",
    "dynamics.power_reuse": "ratio",
    "dynamics.iterate_vector.steps_per_s": "1/s",
    **{f"corpus.{family}.s": "s" for family in FAMILIES},
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.load_system_s": "s",
    "cli.dump_system_s": "s", "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["desk", "dense", "thin", "cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny systems, for the smoke test")
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else float("nan")


# ---- provenance -------------------------------------------------------------

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": workload, "seed": seed, "trace": trace, "git_sha": git_sha(),
            "threads": int(os.environ["OMP_NUM_THREADS"]), "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


# ---- set-up -----------------------------------------------------------------

def fresh_altproj():
    """Import altproj anew, so that each set-up pays the import."""
    for key in [k for k in sys.modules if k == "altproj" or k.startswith("altproj.")]:
        del sys.modules[key]
    ap = importlib.import_module("altproj")
    if not Path(ap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"altproj was imported from {ap.__file__}, not from {SRC}")
    return ap


def set_up(specs, seed: int, files_dir: Path | None):
    """Import altproj and make the pass's inputs; in cli, write the system files.

    Returns (seconds, altproj, items, seconds per corpus family, file texts).
    """
    from workloads import Item, spanning_rows
    import numpy as np
    start = time.perf_counter()
    ap = fresh_altproj()
    cli = importlib.import_module("altproj.cli") if files_dir else None
    family_s = defaultdict(float)
    items, texts = [], {}
    for i, spec in enumerate(specs):
        t0 = time.perf_counter()
        reference = getattr(ap, spec.family)(*spec.args)
        family_s[spec.family] += time.perf_counter() - t0
        item = Item(label=f"{i}:{spec.family}", spec=spec, dim=reference.ambient_dim,
                    rows=spanning_rows(spec, reference), reference=reference,
                    iterate_seed=int(np.random.default_rng([seed, i]).integers(2**31)))
        items.append(item)
        if files_dir is not None:
            texts[item.label] = cli.dump_system(reference) + "\n"
            (files_dir / f"{i}.json").write_text(texts[item.label], encoding="utf-8")
    return time.perf_counter() - start, ap, items, family_s, texts


# ---- timed phases -------------------------------------------------------------

class Phase:
    """Per-system samples of one timed phase, pass by pass, with its
    reference-kernel times."""

    def __init__(self, ledger):
        self.passes = []       # per pass: metric key -> seconds per system
        self.wall = 0.0
        self.outputs = []      # cli: (item, key, argv, process) per command
        self.overheads = []    # cli, traced: subprocess minus in-process seconds
        self._ledger = ledger
        self._first = len(ledger.kernel)
        self._start = time.perf_counter()

    def add(self, times: dict) -> None:
        current = self.passes[-1]
        current["analysis"].append(sum(times.values()))
        for key in ("angles", "bounds", "verdict", "iterate"):
            if key in times:
                current[key].append(times[key])

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def run(self, budget: float, one_pass) -> "Phase":
        """Run whole passes: at least MIN_PASSES, then another only if it
        should end within budget.

        Whole passes keep the mix of systems the same in every run.  The
        phase's wall time leaves out the kernel runs.
        """
        while True:
            began = time.perf_counter()
            self.passes.append(defaultdict(list))
            one_pass()
            if (len(self.passes) >= MIN_PASSES
                    and self.elapsed() + (time.perf_counter() - began) > budget):
                break
        self.kernel = self._ledger.kernel[self._first:]
        self.wall = self.elapsed() - sum(self.kernel)
        return self

    def per_system(self, key: str) -> float:
        """Median over passes of the mean seconds per system, at the reference speed."""
        return median([statistics.fmean(p[key]) for p in self.passes if p[key]]) * self.speed

    @property
    def speed(self) -> float:
        """Factor that scales this phase's seconds to the reference speed."""
        return speed(self.kernel)

    @property
    def systems(self) -> int:
        return sum(len(p["analysis"]) for p in self.passes)


def speed(kernel: list[float]) -> float:
    from workloads import REFERENCE_KERNEL_S
    return REFERENCE_KERNEL_S / statistics.fmean(kernel)


def library_phase(ap, items, scale, probe, budget, ledger, tracer=None) -> Phase:
    from workloads import analyse_system, run_probe
    phase = Phase(ledger)
    requests = itertools.count()

    def one_pass():
        for item in items:
            if tracer is not None:
                tracer.request = next(requests)
            times = analyse_system(ap, item, scale, ledger)
            if times is not None:
                phase.add(times)
        if probe:
            if tracer is not None:
                tracer.request = -1
            run_probe(ap, scale, ledger)

    return phase.run(budget, one_pass)


def traced_command(tracer, argv, spans_path: Path):
    """Run a command under the traced entry point and adopt its spans.

    Returns (process, seconds, seconds outside the in-process main()).
    """
    from workloads import run_cli
    with tracer.span("bench.cli." + argv[0]) as index:
        proc, wall = run_cli(argv, spans_path)
    if not spans_path.is_file():
        return proc, wall, None
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    spans_path.unlink()
    tracer.adopt(spans, index)
    main = [end - start for name, start, end, parent, _, _ in spans if name == "cli.main" and parent < 0]
    return proc, wall, (wall - main[0]) if main else None


def cli_phase(items, files_dir, scale, probe, budget, ledger, tracer=None) -> Phase:
    from workloads import cli_commands, probe_command, run_cli
    phase = Phase(ledger)
    spans_path = files_dir / "spans.json"

    def command(item, key, argv):
        ledger.calibrate()
        ledger.attempted += 1
        if tracer is None:
            proc, wall = run_cli(argv)
        else:
            proc, wall, overhead = traced_command(tracer, argv, spans_path)
            if overhead is not None:
                phase.overheads.append(overhead)
        phase.outputs.append((item, key, argv, proc))
        return wall

    requests = itertools.count()

    def one_pass():
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.request = next(requests)
            times = defaultdict(float)
            for key, argv in cli_commands(item, files_dir / f"{i}.json", scale):
                times[key] += command(item, key, argv)
            phase.add(times)
        if probe:
            if tracer is not None:
                tracer.request = -1
            command(None, "probe", probe_command(scale))

    return phase.run(budget, one_pass)


def verify_cli_outputs(ap, items, texts, scale, phases, ledger) -> Phase:
    """Check every command output against in-process values.

    No command computes the verdict, so the returned phase times
    dichotomy_report in-process on the same systems.
    """
    import numpy as np
    from workloads import OperationFailed, check_verdict, cli_reference, verify_cli
    cli = importlib.import_module("altproj.cli")
    refs = {}
    for item in items:
        try:
            refs[item.label] = cli_reference(ap, cli, item, texts[item.label], scale)
        except Exception as exc:  # reported as a failure of every output of this system
            ledger.record(item.label, "reference", [f"raised {type(exc).__name__}: {exc}"])
    refs["probe"] = ap.slow_vector_probe(1.0 / np.arange(1, scale.probe_k + 1),
                                         ap.SlowSequence.power(0.5), scale.probe_horizon)
    for phase in phases:
        for item, key, argv, proc in phase.outputs:
            label = item.label if item is not None else "probe"
            if item is not None and label not in refs:
                ledger.record(label, argv[0], ["no in-process reference"])
                continue
            text = texts[label] if item is not None else None
            ledger.record(label, argv[0], verify_cli(item, key, argv, proc, text, refs))

    def one_pass():
        for item in items:
            if item.label in refs:
                system = refs[item.label].system
                try:
                    _, seconds = ledger.run(item.label, "verdict", lambda: ap.dichotomy_report(system),
                                            check_verdict)
                except OperationFailed:
                    continue
                verdicts.add({"verdict": seconds})

    verdicts = Phase(ledger)
    return verdicts.run(VERDICT_SECONDS, one_pass)


# ---- metrics ------------------------------------------------------------------

def end_to_end(setup_s, setup_speed, phase: Phase, verdicts: Phase | None, children: bool) -> dict:
    """Per-system times at the reference speed; in cli the verdict is timed apart."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    verdicts = verdicts or phase
    n = phase.systems
    return {
        "setup_s": (median(setup_s) * setup_speed, len(setup_s)),
        "analysis_s": (phase.per_system("analysis"), n),
        "systems_per_s": (n / (phase.wall * phase.speed), n),
        "angles_s": (phase.per_system("angles"), n),
        "bounds_s": (phase.per_system("bounds"), n),
        "verdict_s": (verdicts.per_system("verdict"), verdicts.systems),
        "iterate_s": (phase.per_system("iterate"), n),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, 1),
    }


def process_seconds(code: str) -> float:
    """Median wall time of `python -c code` with altproj on the path."""
    import subprocess
    from workloads import cli_env
    times = []
    for _ in range(PROCESS_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(), check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return median(times)


def per_layer(tracer, traced: Phase, plain: Phase, family_runs, setup_speed, items, overheads) -> dict:
    """Per-layer metrics per analysed system, seconds at the reference speed."""
    from tracing import power_reuse, summarize
    n = max(traced.systems, 1)
    f = traced.speed
    summary = summarize(tracer.spans)

    def field(span, key):
        value = summary[span][key] if span in summary else 0.0
        return value * f if key in ("s", "self_s") else value

    out = {name: (field(span, key) / n, n) for name, (span, key) in SPAN_METRICS.items()}
    # the build is the benchmark's own span in-process, load_system in a command
    out["subspace.build_s"] = ((field("bench.build", "s") + field("cli.load_system", "s")) / n, n)
    out["dynamics.power_reuse"] = (power_reuse(tracer.spans), n)
    iterate_s = field("dynamics.iterate_vector", "s")
    out["dynamics.iterate_vector.steps_per_s"] = (
        field("dynamics.iterate_vector", "work") / iterate_s if iterate_s else 0.0, n)
    for family in FAMILIES:
        out[f"corpus.{family}.s"] = (
            median([run.get(family, 0.0) for run in family_runs]) * setup_speed, len(family_runs))

    cli = importlib.import_module("altproj.cli")
    dumps, loads = [], []
    for item in items:
        t0 = time.perf_counter()
        text = cli.dump_system(item.reference)
        t1 = time.perf_counter()
        cli.load_system(text)
        dumps.append(t1 - t0)
        loads.append(time.perf_counter() - t1)
    interpreter = process_seconds("pass")
    out["cli.interpreter_s"] = (interpreter * f, PROCESS_REPEATS)
    out["cli.import_s"] = ((process_seconds("import altproj") - interpreter) * f, PROCESS_REPEATS)
    out["cli.load_system_s"] = (median(loads) * f, len(loads))
    out["cli.dump_system_s"] = (median(dumps) * f, len(dumps))
    out["cli.overhead_s"] = (median(overheads) * f, len(overheads))
    out["trace.overhead_s"] = (traced.per_system("analysis") - plain.per_system("analysis"), n)
    return out


def library_overheads(tracer, items, files_dir: Path) -> list[float]:
    """Subprocess minus in-process seconds of `gen` for each system of the pool."""
    from workloads import gen_args
    overheads = []
    for item in items:
        _, _, overhead = traced_command(tracer, gen_args(item.spec), files_dir / "spans.json")
        if overhead is not None:
            overheads.append(overhead)
    return overheads


# ---- one workload -------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    from tracing import Tracer
    from workloads import FULL, TINY, Ledger, kernel_seconds, pool
    scale = TINY if tiny else FULL
    specs, probe = pool(workload, seed, tiny)
    OUT.mkdir(parents=True, exist_ok=True)
    files_dir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    files_dir.mkdir()
    try:
        is_cli = workload == "cli"
        setup_s, family_runs, setup_kernel = [], [], []
        for _ in range(SETUP_REPEATS):
            setup_kernel.append(kernel_seconds())
            elapsed, ap, items, family_s, texts = set_up(specs, seed, files_dir if is_cli else None)
            setup_kernel.append(kernel_seconds())
            setup_s.append(elapsed)
            family_runs.append(family_s)
        setup_speed = speed(setup_kernel)

        ledger = Ledger()

        def phase(budget, tracer=None):
            if is_cli:
                return cli_phase(items, files_dir, scale, probe, budget, ledger, tracer)
            return library_phase(ap, items, scale, probe, budget, ledger, tracer)

        if not trace:
            plain = phase(seconds)
            verdicts = verify_cli_outputs(ap, items, texts, scale, [plain], ledger) if is_cli else None
            metrics = end_to_end(setup_s, setup_speed, plain, verdicts, children=is_cli)
            units = END_TO_END
        else:
            plain = phase(seconds / 2)
            tracer = Tracer()
            tracer.install()
            ledger.tracer = tracer
            try:
                traced = phase(seconds / 2, tracer)
                tracer.request = None
                overheads = traced.overheads if is_cli else library_overheads(tracer, items, files_dir)
            finally:
                tracer.uninstall()
                ledger.tracer = None
            if is_cli:
                verify_cli_outputs(ap, items, texts, scale, [plain, traced], ledger)
            metrics = per_layer(tracer, traced, plain, family_runs, setup_speed, items, overheads)
            units = PER_LAYER
            tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(files_dir, ignore_errors=True)
    return {
        "metrics": {name: {"value": value, "unit": units[name], "samples": samples}
                    for name, (value, samples) in metrics.items()},
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failures": ledger.failures,
        "raw": {"setup_s": setup_s, "setup_kernel_s": setup_kernel, "kernel_s": plain.kernel,
                "wall_s": plain.wall, "passes": plain.passes},
    }


def print_result(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:6} {name:40} {m['value']:>16.9g} {m['unit']:6} n={m['samples']}")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"{workload:6} {'error_rate':40} {rate:>16.9g} {'ratio':6} "
          f"({result['failed']} failed of {result['attempted']} operations)")
    for line in result["failures"][:20]:
        print(f"{workload:6} FAILED {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported anywhere
        os.environ[var] = "1"
    # one core for the harness, the reference kernel and every subprocess, so
    # that the kernel sees the same neighbours as the work it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "altproj" / "__init__.py").is_file():
        print(f"perfbench: no altproj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = ["desk", "dense", "thin", "cli"] if args.workload == "all" else [args.workload]
    info = provenance(args.workload, args.seed, args.trace)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, args.trace, args.tiny)
        print_result(workload, results[workload])
        path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"provenance": info, **results[workload]}, indent=2), encoding="utf-8")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(workloads) > 1
    metrics = {(f"{w}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
               for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
