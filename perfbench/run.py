"""fourierprg benchmark: one workload in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: base-sample, wide-chernoff, recursive-n128, enum-exact (see
workloads.py and BENCHMARK.json for why each exists).

--trace 0 measures the end-to-end metrics with tracing off: set-up time as
the median over fresh processes, then whole rounds of the workload until S
seconds have passed, then the correctness gate. --trace 1 gives the
per-layer metrics instead: set-up is traced, rounds run untraced for S/2
seconds and traced for S/2 seconds, and the spans are written to
.bench_out/spans-<workload>.npz. Round-phase layer metrics are per round.

Lines starting with '#' are for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when the gate passed, 1 when it failed and 2 when the checkout is
incomplete.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
# Read when the process starts: BLAS runs one thread, and glibc malloc is
# pinned to the thresholds its own dynamic adjustment reaches once a 32 MiB
# block has been freed. Unpinned, a process serves mid-size numpy arrays
# from fresh mmaps until it happens to free a large block, and the same
# enumeration ran 1.8x slower before that than after.
PINNED_ENV = {**{var: "1" for var in BLAS_VARS},
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("samples_per_s", "rows/s"),
    ("seed_bits", "bits"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]

# (metric, unit, phase, layer, field): "round" values are per measured
# round, "setup" values are totals over the traced set-up
SPAN_METRICS = [
    ("compose.inw_base.self_s", "s", "round", "compose.inw_base", "self_s"),
    ("robp.inw_expand.self_s", "s", "round", "robp.inw_expand", "self_s"),
    ("robp.inw_expand.rows", "rows", "round", "robp.inw_expand", "rows"),
    ("core.sample_seeds.self_s", "s", "round", "core.sample_seeds",
     "self_s"),
    ("highvar.glarge.self_s", "s", "round", "highvar.glarge", "self_s"),
    ("highvar.g1.self_s", "s", "round", "highvar.g1", "self_s"),
    ("highvar.g1.calls", "count", "round", "highvar.g1", "calls"),
    ("highvar.recycler.self_s", "s", "round", "highvar.recycler", "self_s"),
    ("highvar.recycler.calls", "count", "round", "highvar.recycler",
     "calls"),
    ("reductions.dim_step.self_s", "s", "round", "reductions.dim_step",
     "self_s"),
    ("reductions.alphabet_step.self_s", "s", "round",
     "reductions.alphabet_step", "self_s"),
    ("compose.xor_compose.self_s", "s", "round", "compose.xor_compose",
     "self_s"),
    ("families.kwise.self_s", "s", "round", "families.kwise", "self_s"),
    ("families.kwise.rows", "rows", "round", "families.kwise", "rows"),
    ("families.kwise.wide_rows", "rows", "round", "families.kwise",
     "extra"),
    ("families.combined_hash.self_s", "s", "round",
     "families.combined_hash", "self_s"),
    ("families.small_bias.self_s", "s", "round", "families.small_bias",
     "self_s"),
    ("fields.gf2_mul_vec.self_s", "s", "round", "fields.gf2_mul_vec",
     "self_s"),
    ("fields.gf2_mul_vec.calls", "count", "round", "fields.gf2_mul_vec",
     "calls"),
    ("fields.scalar_mul.self_s", "s", "round", "fields.scalar_mul",
     "self_s"),
    ("fields.scalar_mul.calls", "count", "round", "fields.scalar_mul",
     "calls"),
    ("fields.next_prime.s", "s", "setup", "fields.next_prime", "total_s"),
    ("compose.build_generator.s", "s", "setup", "compose.build_generator",
     "total_s"),
    ("core.output_pmf.self_s", "s", "round", "core.output_pmf", "self_s"),
    ("shapes.values_on_all_patterns.self_s", "s", "round",
     "shapes.values_on_all_patterns", "self_s"),
    ("shapes.eval_shape_batch.self_s", "s", "round",
     "shapes.eval_shape_batch", "self_s"),
    ("shapes.fooling_error.self_s", "s", "round", "shapes.fooling_error",
     "self_s"),
    ("apps.oracle.self_s", "s", "round", "apps.oracle", "self_s"),
    ("apps.chernoff_map.self_s", "s", "round", "apps.chernoff_map",
     "self_s"),
    ("apps.chernoff_tail.self_s", "s", "round", "apps.chernoff_tail",
     "self_s"),
    ("metrics.linear_pmf.self_s", "s", "round", "metrics.linear_pmf",
     "self_s"),
    ("metrics.linear_pmf.calls", "count", "round", "metrics.linear_pmf",
     "calls"),
    ("cli.run_campaign.self_s", "s", "round", "cli.run_campaign", "self_s"),
    # round time outside every wrapped layer
    ("bench.round.self_s", "s", "round", "bench.round", "self_s"),
]

# seed-bit ledger: metric -> plan-node type whose local_seed_bits it sums
LEDGER_METRICS = [
    ("highvar.glarge.seed_bits", "glarge"),
    ("reductions.dim_step.local_seed_bits", "dim-step"),
    ("reductions.alphabet_step.local_seed_bits", "alphabet-step"),
    ("compose.inw_base.seed_bits", "inw-base"),
]

PER_LAYER = ([(m, u) for m, u, *_ in SPAN_METRICS]
             + [("highvar.glarge.bucket_use", "ratio"),
                ("core.output_pmf.seeds", "seeds")]
             + [(m, "bits") for m, _ in LEDGER_METRICS]
             + [("bench.trace_overhead", "ratio"),
                ("probe.n256.failed", "count")])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["base-sample", "wide-chernoff", "recursive-n128",
                            "enum-exact"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def checkout_problem() -> str | None:
    for rel in ("src/fourierprg/__init__.py", "campaigns/chernoff-n64.json",
                "pyproject.toml"):
        if not (ROOT / rel).is_file():
            return f"{rel} is missing: run from the root of a full checkout"
    return None


def probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up seconds from SETUP_PROBES fresh processes, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_rounds(w, meter, seconds: float, tracer=None):
    """Whole rounds for about ``seconds``: at least one, and no round that
    the last one's time says would end past the budget. Each round is
    (wall s, rows, s inside generate_batch, pmf seeds, s inside
    output_pmf)."""
    rounds, checks = [], []
    start = time.perf_counter()
    while True:
        before = meter.snapshot()
        scope = (tracer.span("bench.round") if tracer
                 else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with scope:
                result = w.round()
        except Exception as exc:  # a raising round is a counted failure
            traceback.print_exc()
            checks.append(("round.raised", False, repr(exc)))
            break
        dt = time.perf_counter() - t0
        after = meter.snapshot()
        rounds.append((dt,) + tuple(a - b for a, b in zip(after, before)))
        checks += w.check_round(result)
        if time.perf_counter() - start + dt > seconds:
            break
    return rounds, checks


def warm(rounds: list) -> list:
    """The rounds that count: the first is a warm-up when more than two
    ran."""
    return rounds[1:] if len(rounds) > 2 else rounds


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def rate(w, rounds) -> float:
    """Median rows per second over the warm rounds."""
    rows, secs = (3, 4) if w.rate == "pmf" else (1, 2)
    return median(r[rows] / r[secs] for r in warm(rounds) if r[secs] > 0)


def package_version() -> str:
    import tomllib
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["version"]


def header(w, args, np) -> dict:
    import workloads
    gens = w.generators()
    seed_bits = sum(g.seed_bits for g in gens)
    output_bits = sum(g.n * math.log2(g.m) for g in gens)
    ledger: dict = {}
    for g in gens:
        workloads.ledger(g.plan(), ledger)
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "batch": w.batch,
        "seed_bits": seed_bits, "output_bits": output_bits,
        "stretch": output_bits / seed_bits,
        "plans": [{"type": g.plan()["type"],
                   "sha256": workloads.plan_sha256(g.plan())} for g in gens],
        "ledger": ledger,
        "package": package_version(), "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def layer_metrics(tracer, traced, reference, probe, ledger) -> dict:
    import spans
    arrays = tracer.arrays()
    names = sorted(tracer.codes, key=tracer.codes.get)
    per_phase = {"round": spans.aggregate(arrays, names, "bench.round"),
                 "setup": spans.aggregate(arrays, names, "bench.setup")}
    zero = {"self_s": 0.0, "total_s": 0.0, "calls": 0.0, "rows": 0.0,
            "extra": 0.0, "under": {}}
    nrounds = max(len(traced), 1)
    out = {}
    for metric, _unit, phase, layer, field in SPAN_METRICS:
        v = per_phase[phase].get(layer, zero)[field]
        out[metric] = v / nrounds if phase == "round" else v
    rounds = per_phase["round"]
    glarge = rounds.get("highvar.glarge", zero)
    g1_under = rounds.get("highvar.g1", zero)["under"].get(
        "highvar.glarge", 0)
    out["highvar.glarge.bucket_use"] = (g1_under / glarge["extra"]
                                        if glarge["extra"] else 0.0)
    out["core.output_pmf.seeds"] = sum(r[3] for r in traced) / nrounds
    for metric, node in LEDGER_METRICS:
        out[metric] = ledger.get(node, 0)
    ref_s = median(r[0] for r in warm(reference))
    out["bench.trace_overhead"] = (median(r[0] for r in traced) / ref_s
                                   if ref_s else 0.0)
    out["probe.n256.failed"] = probe["failed"] if probe else 0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import fourierprg
    src = (ROOT / "src" / "fourierprg").resolve()
    if Path(fourierprg.__file__).resolve().parent != src:
        print(f"error: imported fourierprg from {fourierprg.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    w = workloads.make(args.workload, args.seed, ROOT)
    setup_times = [] if args.trace else probe_setups(args.workload,
                                                     args.seed)
    meter = spans.Meter()
    meter_patches, trace_patches = spans.Patches(), spans.Patches()
    tracer = spans.Tracer() if args.trace else None
    checks: list = []
    try:
        spans.install_meter(meter, meter_patches)
        if tracer:
            spans.install_tracer(tracer, trace_patches)
            with tracer.span("bench.setup"):
                w.setup()
            trace_patches.undo()
            reference, ref_checks = run_rounds(w, meter, args.seconds / 2)
            spans.install_tracer(tracer, trace_patches)
            rounds, round_checks = run_rounds(w, meter, args.seconds / 2,
                                              tracer)
            trace_patches.undo()
            checks += ref_checks
        else:
            w.setup()
            rounds, round_checks = run_rounds(w, meter, args.seconds)
        checks += round_checks
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            checks += w.gate()
        except Exception as exc:  # a raising gate is a counted failure
            traceback.print_exc()
            checks.append(("gate.raised", False, repr(exc)))
        probe = w.probe()
    finally:
        trace_patches.undo()
        meter_patches.undo()

    head = header(w, args, np)
    failed = [c for c in checks if not c[1]]
    print("# header " + json.dumps(head, sort_keys=True))
    for name, _, detail in failed:
        print(f"# FAIL {name}: {detail}")
    if probe:
        print(f"# probe build_generator(2, 256, 0.1): "
              f"{'failed' if probe['failed'] else 'ok'} ({probe['detail']})")
    print(f"# digest sha256 {w.digest()}")
    print(f"# checks {len(checks)} attempted, {len(failed)} failed")
    print(f"# rounds {len(rounds)} of {[round(r[0], 4) for r in rounds]} s, "
          f"batch: {w.batch}")

    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{w.name}.npz")
        values = layer_metrics(tracer, rounds, reference, probe,
                               head["ledger"])
        units = dict(PER_LAYER)
        run_s = median(r[0] for r in rounds) or 1.0
        for name, value in values.items():
            share = (f"  ({value / run_s:.1%} of traced round)"
                     if units[name] == "s" and name.endswith("self_s")
                     else "")
            print(f"# layer {name} {value:.6g} {units[name]}{share}")
    else:
        values = {
            "setup_s": median(setup_times),
            "run_s": median(r[0] for r in warm(rounds)),
            "samples_per_s": rate(w, rounds),
            "seed_bits": head["seed_bits"],
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1 - len(failed) / max(len(checks), 1),
        }
        units = dict(END_TO_END)
        print(f"# setup_s samples {setup_times}")
        for name, unit in END_TO_END:
            print(f"# metric {name} {values[name]:.6g} {unit}")
        print(f"# fail_frac {len(failed) / max(len(checks), 1):.6g}")
    result = {"correct": not failed, "attempted": max(len(checks), 1),
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0 if not failed else 1


def pin_environment() -> None:
    """Restart this process under PINNED_ENV unless it already runs so."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, __file__] + sys.argv[1:])


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
