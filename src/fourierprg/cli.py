"""Command-line front end: plan construction and sample emission (gen),
verification campaigns (verify), and report aggregation (report).

Every run is reproducible from (flags, seeds, plan JSON): all randomness
flows through explicitly seeded numpy generators and all knobs are echoed
into the report header. Exit codes: 0 pass, 1 fail, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .apps import (ChernoffSampler, CombinatorialShape, Halfspace,
                   ModularTest, chernoff_tail_check, comb_shape_error,
                   halfspace_error, modular_error)
from .compose import ComposePlan, build_generator
from .core import Generator, UniformStub, sample_seeds
from .shapes import EnumerateMode, SampleMode, fooling_error, random_shape

@dataclass(frozen=True)
class VerifyCampaign:
    """Fully reproducible description of one verification run."""

    family: str
    m: int
    n: int
    eps: float
    count: int
    rng_seed: int = 0
    mode: str = "enumerate"          # enumerate | sample
    n_samples: int = 100_000
    enum_cap: int = 26
    pattern_cap: int = 1 << 22
    generator: str = "composed"      # composed | uniform-stub
    modulus: int = 3                 # modular family only
    knobs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.mode not in ("enumerate", "sample"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.generator not in ("composed", "uniform-stub"):
            raise ValueError(f"unknown generator {self.generator!r}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerifyCampaign":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class FoolingReport:
    header: dict
    instances: list
    summary: dict

    def lines(self):
        yield json.dumps(self.header, sort_keys=True)
        for inst in self.instances:
            yield json.dumps(inst, sort_keys=True)
        yield json.dumps(self.summary, sort_keys=True)


def compose_plan_from_knobs(knobs: dict) -> ComposePlan:
    fields = {f.name: f.type for f in dataclasses.fields(ComposePlan)}
    bad = set(knobs) - set(fields)
    if bad:
        raise ValueError(f"unknown knobs: {sorted(bad)}")
    return ComposePlan(**knobs)


def _build(campaign: VerifyCampaign, m: int, n: int) -> Generator:
    if campaign.generator == "uniform-stub":
        return UniformStub(m, n)
    return build_generator(m, n, campaign.eps,
                           compose_plan_from_knobs(campaign.knobs))


def _eval_mode(campaign: VerifyCampaign, index: int):
    if campaign.mode == "enumerate":
        return EnumerateMode()
    # decorrelate instance sampling streams deterministically
    return SampleMode(campaign.n_samples, campaign.rng_seed * 100_003 + index)


# One draw-and-measure function per campaign family: each draws its
# instance from rng and returns (err, std_err, seeds_evaluated, mode).
# They look the measuring functions up as module globals at call time, so
# a caller that replaces those attributes (perfbench/spans.py) sees them.


def _caps(c: VerifyCampaign) -> dict:
    return {"pattern_cap": c.pattern_cap, "enumerate_cap": c.enum_cap}


def _fields(r) -> tuple:
    return r.err, r.std_err, r.seeds_evaluated, r.mode


def _shapes(c: VerifyCampaign, g, rng, index: int) -> tuple:
    f = random_shape(rng, c.n, c.m)
    err, std = fooling_error(f, g, _eval_mode(c, index), **_caps(c))
    seeds = 1 << g.seed_bits if c.mode == "enumerate" else c.n_samples
    return err, std, seeds, c.mode


def _halfspaces(c: VerifyCampaign, g, rng, index: int) -> tuple:
    w = rng.integers(-c.n, c.n + 1, size=c.n)
    bound = int(np.abs(w).sum())
    theta = int(rng.integers(-bound, bound + 1)) if bound else 0
    return _fields(halfspace_error(g, Halfspace(w, theta),
                                   _eval_mode(c, index), **_caps(c)))


def _modular(c: VerifyCampaign, g, rng, index: int) -> tuple:
    M = c.modulus
    a = rng.integers(0, M, size=c.n)
    size = int(rng.integers(1, M))
    S = frozenset(int(s) for s in rng.choice(M, size=size, replace=False))
    return _fields(modular_error(g, ModularTest(a, M, S),
                                 _eval_mode(c, index), **_caps(c)))


def _comb_shapes(c: VerifyCampaign, g, rng, index: int) -> tuple:
    shape = CombinatorialShape(rng.integers(0, 2, size=(c.n, c.m)),
                               rng.integers(0, 2, size=c.n + 1))
    return _fields(comb_shape_error(g, shape, _eval_mode(c, index),
                                    **_caps(c)))


def _chernoff(c: VerifyCampaign, g, rng, index: int) -> tuple:
    # g here is the index generator over [2^r_x]^n; always sampled
    pmfs = rng.random((c.n, c.m)) + 0.1
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    tables = rng.random((c.n, c.m)) * 2 - 1
    sampler = ChernoffSampler(pmfs, c.eps, g)
    tc = chernoff_tail_check(sampler, tables, 2.0 * math.sqrt(c.n),
                             c.n_samples,
                             rng_seed=c.rng_seed * 100_003 + index)
    return max(0.0, tc.empirical - tc.bound), tc.std_err, tc.trials, "sample"


MEASURE = {"shapes": _shapes, "halfspaces": _halfspaces,
           "modular": _modular, "comb-shapes": _comb_shapes,
           "chernoff": _chernoff}
FAMILIES = tuple(MEASURE)


def _run_one(campaign: VerifyCampaign, g, rng, index: int) -> dict:
    err, std, seeds, mode = MEASURE[campaign.family](campaign, g, rng, index)
    return {"type": "instance", "index": index, "family": campaign.family,
            "m": campaign.m, "n": campaign.n, "eps_target": campaign.eps,
            "err_measured": err, "std_err": std,
            "seeds_evaluated": seeds, "mode": mode}


def run_campaign(campaign: VerifyCampaign) -> FoolingReport:
    rng = np.random.default_rng(campaign.rng_seed)
    if campaign.family == "chernoff":
        r_x = max(1, math.ceil(
            math.log2(campaign.m * campaign.n / campaign.eps)))
        g = _build(campaign, 1 << r_x, campaign.n)
    else:
        g = _build(campaign, campaign.m, campaign.n)
    knobs = dataclasses.asdict(
        compose_plan_from_knobs(campaign.knobs)
        if campaign.generator == "composed" else ComposePlan())
    header = {"type": "header",
              "campaign": json.loads(campaign.to_json()),
              "knobs": knobs,
              "generator_seed_bits": g.seed_bits}
    instances = []
    for i in range(campaign.count):
        try:
            instances.append(_run_one(campaign, g, rng, i))
        except ValueError as exc:
            instances.append({"type": "instance", "index": i,
                              "family": campaign.family,
                              "m": campaign.m, "n": campaign.n,
                              "eps_target": campaign.eps,
                              "refused": str(exc)})
    done = [r for r in instances if "refused" not in r]
    errs = [r["err_measured"] for r in done]
    # a campaign that measured nothing has shown nothing, so it fails
    passed = bool(done) and all(
        r["err_measured"] <= campaign.eps + (3 * r["std_err"]
                                             if r["mode"] == "sample" else 0)
        for r in done)
    summary = {"type": "summary",
               "instances": len(instances),
               "refused": len(instances) - len(done),
               "max_err": max(errs, default=0.0),
               "mean_err": (sum(errs) / len(errs)) if errs else 0.0,
               "pass": passed}
    return FoolingReport(header, instances, summary)


# ---------------------------------------------------------------------------
# commands


def _parse_knobs(pairs) -> dict:
    knobs = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"knob must be KEY=VALUE, got {pair!r}")
        key, val = pair.split("=", 1)
        fields = {f.name: f.type for f in dataclasses.fields(ComposePlan)}
        if key not in fields:
            raise ValueError(f"unknown knob {key!r}")
        knobs[key] = float(val) if "." in val or "e" in val.lower() \
            else int(val)
    return knobs


def _load_config(path) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    if not path:
        return {}
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def cmd_gen(args) -> int:
    config = _load_config(args.config)
    knobs = _parse_knobs(
        [f"{k}={v}" for k, v in config.items()] + (args.knob or []))
    plan = compose_plan_from_knobs(knobs)
    g = build_generator(args.m, args.n, args.eps, plan)
    print(f"seed length: {g.seed_bits} bits")
    if args.plan_out:
        with open(args.plan_out, "w") as fh:
            json.dump(g.plan(), fh, sort_keys=True)
            fh.write("\n")
    if args.seed is not None:
        if args.samples not in (None, 1):
            raise ValueError("--seed emits exactly one sample")
        out = g.generate(int(args.seed, 16))
        print(" ".join(str(int(v)) for v in out))
    elif args.samples:
        rng = np.random.default_rng(args.rng_seed)
        seeds = sample_seeds(rng, g.seed_bits, args.samples)
        for row in g.generate_batch(seeds):
            print(" ".join(str(int(v)) for v in row))
    return 0


def cmd_verify(args) -> int:
    if args.campaign:
        with open(args.campaign) as fh:
            campaign = VerifyCampaign.from_json(fh.read())
    else:
        if args.family is None or args.m is None or args.n is None \
                or args.eps is None:
            raise ValueError(
                "--family/--m/--n/--eps required without --campaign")
        config = _load_config(args.config)
        enum_cap = args.enum_cap if args.enum_cap is not None \
            else int(config.pop("enum_cap", 26))
        knobs = _parse_knobs(
            [f"{k}={v}" for k, v in config.items()] + (args.knob or []))
        campaign = VerifyCampaign(
            family=args.family, m=args.m, n=args.n, eps=args.eps,
            count=args.count, rng_seed=args.rng_seed, mode=args.mode,
            n_samples=args.samples, enum_cap=enum_cap,
            generator=args.generator, modulus=args.modulus, knobs=knobs)
    report = run_campaign(campaign)
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        for line in report.lines():
            sink.write(line + "\n")
    finally:
        if args.out:
            sink.close()
    return 0 if report.summary["pass"] else 1


_CSV_COLUMNS = ["index", "family", "m", "n", "eps_target", "err_measured",
                "std_err", "seeds_evaluated", "mode", "refused"]


def cmd_report(args) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(_CSV_COLUMNS)
    max_err = 0.0
    rows = 0
    for path in args.files:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    print(f"warning: {path}:{lineno}: malformed line skipped",
                          file=sys.stderr)
                    continue
                if rec.get("type") != "instance":
                    continue
                writer.writerow([rec.get(c, "") for c in _CSV_COLUMNS])
                rows += 1
                if "err_measured" in rec:
                    max_err = max(max_err, rec["err_measured"])
    print(f"rows: {rows}  max_err: {max_err}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourierprg",
        description="Pseudorandom generators for product tests: plan "
                    "construction, sampling, and verification campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a generator and emit samples")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", help="seed as lowercase big-endian hex")
    p.add_argument("--samples", type=int)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--plan-out")
    p.add_argument("--config")
    p.add_argument("--knob", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--campaign", help="campaign JSON file")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--mode", choices=("enumerate", "sample"),
                   default="enumerate")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--enum-cap", type=int)
    p.add_argument("--generator", choices=("composed", "uniform-stub"),
                   default="composed")
    p.add_argument("--modulus", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--knob", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="aggregate report files to CSV")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
