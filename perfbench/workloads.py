"""The benchmark's workloads.

Each workload is built from the workload seed alone and only calls public
functions of fourierprg. Its parts, in the order the runner uses them:

* ``setup()``: generator construction plus one warm-up batch at the
  workload's batch size (what a fresh process pays before its first useful
  batch; it also lets the allocator settle at that size);
* ``round()``: one fixed unit of measured work; ``check_round`` checks its
  outputs after the clock has stopped;
* ``gate()``: the correctness gate, run outside the timed region;
* ``generators()``: the generators the header, ledger and digest describe.

Why each workload exists is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from fourierprg import apps, cli, compose, core, shapes

# seeds of the digest and agreement checks: fixed, so the output digest of a
# workload is the same for every workload seed
DIGEST_SEEDS = 2


def fixed_seeds(bits: int, count: int, tag: str) -> list[int]:
    """The all-ones seed, then count - 1 seeds hashed from tag; they do not
    depend on the package's own seed sampler."""
    out = [(1 << bits) - 1]
    for i in range(1, count):
        stream = b""
        j = 0
        while 8 * len(stream) < bits:
            stream += hashlib.sha256(f"{tag}:{i}:{j}".encode()).digest()
            j += 1
        out.append(int.from_bytes(stream, "big") >> (8 * len(stream) - bits))
    return out


def seeded_ints(rng: np.random.Generator, bits: int, count: int) -> list[int]:
    limbs = (bits + 31) // 32
    raw = rng.integers(0, 1 << 32, size=(count, limbs), dtype=np.int64)
    return [int.from_bytes(b"".join(int(x).to_bytes(4, "big") for x in row),
                           "big") >> (32 * limbs - bits) for row in raw]


def seed_array(ints: list[int], bits: int) -> np.ndarray:
    # the carrier sample_seeds documents: int64 when it fits, else objects
    return np.asarray(ints, dtype=np.int64 if bits <= 62 else object)


def plan_sha256(plan: dict) -> str:
    return hashlib.sha256(
        json.dumps(plan, sort_keys=True).encode()).hexdigest()


def ledger(plan: dict, out: dict | None = None) -> dict:
    """local_seed_bits summed per plan-node type."""
    out = {} if out is None else out
    out[plan["type"]] = out.get(plan["type"], 0) + int(
        plan.get("local_seed_bits", 0))
    for child in plan.get("children", []):
        ledger(child, out)
    return out


def check(checks: list, name: str, ok, detail="") -> None:
    checks.append((name, bool(ok), str(detail)))


def output_checks(checks: list, tag: str, g, out) -> None:
    out = np.asarray(out)
    check(checks, f"{tag}.shape", out.ndim == 2 and out.shape[1] == g.n,
          out.shape)
    check(checks, f"{tag}.range",
          out.size and int(out.min()) >= 0 and int(out.max()) < g.m,
          f"[{out.min()}, {out.max()}] vs m={g.m}")


def agreement(checks: list, g, tag: str, extra: list[int]) -> np.ndarray:
    """Batch versus generate versus a replay of the serialized plan, on the
    fixed seeds (all-ones first) plus ``extra``; returns the batch rows of
    the fixed seeds."""
    ints = fixed_seeds(g.seed_bits, DIGEST_SEEDS, tag) + extra
    seeds = seed_array(ints, g.seed_bits)
    batch = np.asarray(g.generate_batch(seeds))
    output_checks(checks, f"{tag}.batch", g, batch)
    single = np.stack([np.asarray(g.generate(s)) for s in ints])
    check(checks, f"{tag}.batch_vs_generate",
          batch.shape == single.shape and np.array_equal(batch, single))
    plan = g.plan()
    replay = np.asarray(core.plan_to_generator(plan).generate_batch(seeds))
    check(checks, f"{tag}.batch_vs_plan_replay",
          batch.shape == replay.shape and np.array_equal(batch, replay))
    check(checks, f"{tag}.ledger",
          core.plan_seed_bits(plan) == g.seed_bits == plan["seed_bits"],
          f"{core.plan_seed_bits(plan)} vs {g.seed_bits}")
    return batch[:DIGEST_SEEDS]


class Workload:
    name = ""
    # what samples_per_s counts: "generate" = rows per second inside the
    # outermost generate_batch calls, "pmf" = seeds per second inside
    # output_pmf
    rate = "generate"
    batch = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.rng = np.random.default_rng([seed, 1])
        # the gate draws from its own stream, so its inputs do not depend
        # on how many rounds fit in the measured phase
        self.gate_rng = np.random.default_rng([seed, 2])
        self.digest_rows: list[np.ndarray] = []

    def generators(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def check_round(self, result) -> list:
        raise NotImplementedError

    def gate(self) -> list:
        raise NotImplementedError

    def probe(self) -> dict | None:
        return None

    def digest(self) -> str:
        """sha256 over the outputs on the fixed seeds (set by gate)."""
        h = hashlib.sha256()
        for rows in self.digest_rows:
            h.update(np.ascontiguousarray(rows, dtype="<i8").tobytes())
        return h.hexdigest()

    def _warm_up(self, g, rows: int) -> None:
        g.generate_batch(core.sample_seeds(self.rng, g.seed_bits, rows))


class CampaignWorkload(Workload):
    """cli.run_campaign of one campaign per round."""

    campaign: cli.VerifyCampaign

    def generator_args(self) -> tuple:
        c = self.campaign
        return c.m, c.n, c.eps

    def setup(self) -> None:
        c = self.campaign
        self.g = compose.build_generator(
            *self.generator_args(), cli.compose_plan_from_knobs(c.knobs))
        self._warm_up(self.g, 1 << 15)

    def generators(self) -> list:
        return [self.g]

    def round(self):
        return cli.run_campaign(self.campaign)

    def check_round(self, report) -> list:
        checks = []
        eps = self.campaign.eps
        check(checks, "campaign.seed_bits",
              report.header["generator_seed_bits"] == self.g.seed_bits)
        check(checks, "campaign.count",
              len(report.instances) == self.campaign.count)
        for r in report.instances:
            tag = f"campaign.instance{r['index']}"
            if "refused" in r:
                check(checks, tag, False, f"refused: {r['refused']}")
                continue
            slack = 3 * r["std_err"] if r["mode"] == "sample" else 0.0
            check(checks, tag, r["err_measured"] <= eps + slack,
                  f"err {r['err_measured']:.3g} vs {eps} + {slack:.3g}")
        check(checks, "campaign.pass", report.summary["pass"])
        return checks


class BaseSample(CampaignWorkload):
    name = "base-sample"
    batch = "32768 rows per generate_batch (the estimator's batch)"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.campaign = cli.VerifyCampaign(
            family="shapes", m=2, n=64, eps=0.1, count=4, rng_seed=seed,
            mode="sample", n_samples=4 << 15)

    def gate(self) -> list:
        checks = []
        self.digest_rows = [agreement(
            checks, self.g, "base",
            seeded_ints(self.gate_rng, self.g.seed_bits, 1))]
        # random n = 64 shapes have |E_U f| near 1e-20 and pass trivially;
        # a small-alpha linear shape keeps |E_U f| near 1/2
        w = self.gate_rng.integers(-3, 4, size=self.g.n)
        alpha = math.sqrt(2 * math.log(2) / (math.pi ** 2 * float(w @ w)))
        f = shapes.linear_shape(w, alpha, self.g.m)
        mean = abs(shapes.uniform_expectation(f))
        check(checks, "base.lowvar.informative", mean >= 0.1,
              f"|E_U f| = {mean:.3g}")
        err, std = shapes.fooling_error(
            f, self.g, shapes.SampleMode(1 << 17, self.seed))
        eps = self.campaign.eps
        check(checks, "base.lowvar.err", err <= eps + 3 * std,
              f"err {err:.3g} vs {eps} + {3 * std:.3g}")
        return checks


class WideChernoff(CampaignWorkload):
    name = "wide-chernoff"
    batch = "32768 rows per generate_batch (the tail check's batch)"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        text = (root / "campaigns" / "chernoff-n64.json").read_text()
        self.campaign = dataclasses.replace(
            cli.VerifyCampaign.from_json(text), rng_seed=seed)

    def generator_args(self) -> tuple:
        # run_campaign's chernoff generator: indices over [2^r_x]^n
        c = self.campaign
        r_x = max(1, math.ceil(math.log2(c.m * c.n / c.eps)))
        return 1 << r_x, c.n, c.eps

    def gate(self) -> list:
        checks = []
        self.digest_rows = [agreement(
            checks, self.g, "wide",
            seeded_ints(self.gate_rng, self.g.seed_bits, 1))]
        return checks


class RecursiveN128(Workload):
    name = "recursive-n128"
    batch = "4 rows per generate_batch"
    rows = 4

    def setup(self) -> None:
        self.g = compose.build_generator(2, 128, 0.1)
        self._warm_up(self.g, 1)

    def generators(self) -> list:
        return [self.g]

    def round(self):
        return self.g.generate_batch(
            core.sample_seeds(self.rng, self.g.seed_bits, self.rows))

    def check_round(self, out) -> list:
        checks = []
        output_checks(checks, "round", self.g, out)
        check(checks, "round.rows", len(out) == self.rows)
        return checks

    def gate(self) -> list:
        checks = []
        self.digest_rows = [agreement(
            checks, self.g, "recursive",
            seeded_ints(self.gate_rng, self.g.seed_bits, 1))]
        return checks

    def probe(self) -> dict:
        """build_generator(2, 256, 0.1) on two random full-width seeds."""
        try:
            g = compose.build_generator(2, 256, 0.1)
            out = g.generate_batch(
                core.sample_seeds(self.gate_rng, g.seed_bits, 2))
            checks = []
            output_checks(checks, "probe", g, out)
            bad = [c for c in checks if not c[1]]
            return {"failed": int(bool(bad)),
                    "detail": "; ".join(f"{n}: {d}" for n, _, d in bad)
                    or "ok"}
        except Exception as exc:  # the probe reports any failure
            return {"failed": 1, "detail": f"{type(exc).__name__}: {exc}"}


def _walsh(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n vector."""
    v = np.array(v)
    n = len(v)
    h = 1
    while h < n:
        v = v.reshape(-1, 2, h)
        v = np.stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1)
        h *= 2
    return v.reshape(n)


class EnumExact(Workload):
    name = "enum-exact"
    rate = "pmf"
    batch = "262144 seeds per generate_batch (output_pmf's chunk)"
    plans = [{"type": "small-bias-lift", "n": 16, "delta": 1 / 64}]
    per_kind = 8

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        n = self.plans[0]["n"]
        rng = self.rng
        self.shapes = [shapes.random_shape(rng, n, 2)
                       for _ in range(self.per_kind)]
        self.halfspaces = []
        for _ in range(self.per_kind):
            w = rng.integers(-n, n + 1, size=n)
            theta = int(rng.integers(-int(abs(w).sum()),
                                     int(abs(w).sum()) + 1))
            self.halfspaces.append(apps.Halfspace(w, theta))
        self.modular = []
        for _ in range(self.per_kind):
            M = int(rng.integers(3, 6))
            self.modular.append(apps.ModularTest(
                rng.integers(0, M, size=n), M, frozenset({0})))
        codes = np.arange(1 << n, dtype=np.int64)
        # base-2 codes, coordinate 0 most significant (output_pmf's order)
        self.patterns = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1
        self.last = None

    def setup(self) -> None:
        self.gens = [core.plan_to_generator(p) for p in self.plans]
        for g in self.gens:
            g.generate_batch(np.arange(1 << 18, dtype=np.int64))

    def generators(self) -> list:
        return self.gens

    def round(self):
        # fresh generators each round: output_pmf caches on the instance
        results = []
        for plan in self.plans:
            g = core.plan_to_generator(plan)
            pmf = g.output_pmf()
            mode = shapes.EnumerateMode()
            errs = ([shapes.fooling_error(f, g, mode)[0]
                     for f in self.shapes]
                    + [apps.halfspace_error(g, h, mode).err
                       for h in self.halfspaces]
                    + [apps.modular_error(g, t, mode).err
                       for t in self.modular])
            results.append((g, pmf, errs))
        self.last = results
        return results

    def _expected(self, pmf: np.ndarray, bias_bound: float):
        """Independent exact errors and Fourier bounds for every instance:
        E_G f - E_U f is the sum over nonempty S of f^(S) bias(S), so
        |error| <= bias_bound * sum over nonempty S of |f^(S)|."""
        X = self.patterns
        npat = len(X)

        def l1(vals):
            return float(np.abs(_walsh(vals)[1:]).sum()) / npat

        out = []
        for f in self.shapes:
            vals = np.prod(f.table[np.arange(X.shape[1]), X], axis=1)
            out.append((abs(pmf @ vals - vals.mean()), bias_bound * l1(vals)))
        for h in self.halfspaces:
            ind = (X @ h.w >= h.theta).astype(float)
            out.append((abs(pmf @ ind - ind.mean()), bias_bound * l1(ind)))
        for t in self.modular:
            res = (X @ t.a) % t.M
            gen = np.bincount(res, weights=pmf, minlength=t.M)
            unif = np.bincount(res, minlength=t.M) / npat
            bound = 0.5 * bias_bound * sum(
                l1((res == r).astype(float)) for r in range(t.M))
            out.append((0.5 * float(np.abs(gen - unif).sum()), bound))
        return out

    def check_round(self, results) -> list:
        checks = []
        for i, (g, pmf, errs) in enumerate(results):
            tag = f"plan{i}"
            check(checks, f"{tag}.pmf",
                  len(pmf) == g.m ** g.n and float(pmf.min()) >= 0
                  and abs(float(pmf.sum()) - 1) < 1e-12)
            expected = self._expected(pmf, g.family.bias_bound)
            for j, (err, (want, bound)) in enumerate(zip(errs, expected)):
                check(checks, f"{tag}.instance{j}.oracle",
                      abs(err - want) <= 1e-12,
                      f"library {err:.6g} vs independent {want:.6g}")
                check(checks, f"{tag}.instance{j}.bound",
                      err <= bound + 1e-12,
                      f"err {err:.3g} vs Fourier bound {bound:.3g}")
        return checks

    def gate(self) -> list:
        checks = []
        results = self.last or [(g, g.output_pmf(), None) for g in self.gens]
        self.digest_rows = []
        for i, (g, pmf, _) in enumerate(results):
            tag = f"plan{i}"
            check(checks, f"{tag}.enumerable",
                  not g.exactly_uniform and g.seed_bits <= 26,
                  f"{g.seed_bits} seed bits")
            bias = np.abs(_walsh(pmf)[1:])
            bound = g.family.bias_bound
            check(checks, f"{tag}.walsh", float(bias.max()) <= bound + 1e-12,
                  f"max bias {bias.max():.3g} vs bound {bound:.3g}")
            self.digest_rows.append(agreement(
                checks, g, tag, seeded_ints(self.gate_rng, g.seed_bits, 1)))
        return checks


WORKLOADS = {w.name: w for w in (BaseSample, WideChernoff, RecursiveN128,
                                 EnumExact)}


def make(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
