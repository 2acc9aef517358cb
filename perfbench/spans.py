"""Instrumentation for the benchmark, installed from outside the package.

Two recorders share one set of wrappers:

* the meter (always on) counts rows and seconds inside the outermost
  ``generate_batch`` call of any plan node and inside ``output_pmf``;
  these feed ``samples_per_s``;
* the tracer (``--trace 1`` only) records one span per call at each layer
  boundary listed in ``POINTS``: name, start, end, parent span and rows.

Spans live in flat arrays while the run goes on and are written out once
at exit. A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np


def _rows(args):
    return len(args[1])


def _kwise_info(args):
    # rows through the python-int branch of KWiseFamily (same condition
    # the family itself uses to pick that branch)
    fam, n = args[0], len(args[1])
    return n, (n if fam.seed_bits > 62 or fam.q > (1 << 62) else 0)


def _glarge_info(args):
    return len(args[1]), args[0].spreading.T


# (layer, module, owner class or None for a module function, attributes,
#  info) -- info(args) gives rows, or (rows, extra). Names imported with
# ``from .x import y`` are listed once per importing module, because each
# module calls through its own global.
POINTS = [
    ("cli.run_campaign", "cli", None, ["run_campaign"], None),
    ("compose.build_generator", "compose", None, ["build_generator"], None),
    ("compose.build_generator", "cli", None, ["build_generator"], None),
    ("compose.inw_base", "compose", "INWBase", ["generate_batch"], _rows),
    ("compose.xor_compose", "compose", "XorCompose", ["generate_batch"],
     _rows),
    # INWGenerator.generate_batch is a second class attribute bound to the
    # original expand_batch, so both names are wrapped
    ("robp.inw_expand", "robp", "INWGenerator",
     ["expand_batch", "generate_batch"], _rows),
    ("core.sample_seeds", "core", None, ["sample_seeds"], None),
    ("core.sample_seeds", "shapes", None, ["sample_seeds"], None),
    ("core.sample_seeds", "apps", None, ["sample_seeds"], None),
    ("core.sample_seeds", "cli", None, ["sample_seeds"], None),
    ("core.output_pmf", "core", "Generator", ["output_pmf"], None),
    ("highvar.glarge", "highvar", "GLargePlan", ["generate_batch"],
     _glarge_info),
    ("highvar.g1", "highvar", "G1Plan", ["generate_batch"], _rows),
    ("highvar.recycler", "highvar", "SeedRecycler", ["bitstream_batch"],
     _rows),
    ("reductions.dim_step", "reductions", "DimStepPlan", ["generate_batch"],
     _rows),
    ("reductions.alphabet_step", "reductions", "AlphabetStepPlan",
     ["generate_batch"], _rows),
    ("families.kwise", "families", "KWiseFamily",
     ["sample_batch", "eval_points_batch"], _kwise_info),
    ("families.combined_hash", "families", "CombinedHashFamily",
     ["table_batch"], _rows),
    ("families.small_bias", "families", "SmallBiasFamily", ["sample_batch"],
     _rows),
    ("fields.gf2_mul_vec", "fields", "GF2Field", ["mul_vec"], None),
    ("fields.scalar_mul", "fields", "GF2Field", ["mul"], None),
    ("fields.scalar_mul", "fields", "PrimeField", ["mul"], None),
    ("fields.next_prime", "fields", None, ["next_prime"], None),
    ("fields.next_prime", "families", None, ["next_prime"], None),
    ("fields.next_prime", "reductions", None, ["next_prime"], None),
    ("shapes.values_on_all_patterns", "shapes", None,
     ["values_on_all_patterns"], None),
    ("shapes.eval_shape_batch", "shapes", None, ["eval_shape_batch"], _rows),
    ("shapes.fooling_error", "shapes", None, ["fooling_error"], None),
    ("shapes.fooling_error", "cli", None, ["fooling_error"], None),
    ("apps.oracle", "apps", None,
     ["halfspace_error", "gen_halfspace_error", "modular_error",
      "comb_shape_error"], None),
    ("apps.oracle", "cli", None,
     ["halfspace_error", "modular_error", "comb_shape_error"], None),
    ("apps.chernoff_tail", "apps", None, ["chernoff_tail_check"], None),
    ("apps.chernoff_tail", "cli", None, ["chernoff_tail_check"], None),
    ("apps.chernoff_map", "apps", "ChernoffSampler", ["map_batch"], _rows),
    ("metrics.linear_pmf", "metrics", None, ["linear_pmf"], None),
    ("metrics.linear_pmf", "apps", None, ["linear_pmf"], None),
]


class Meter:
    """Rows and seconds inside the outermost generate_batch call, and
    seeds and seconds inside output_pmf."""

    def __init__(self):
        self.depth = 0
        self.gen_rows = 0
        self.gen_s = 0.0
        self.pmf_seeds = 0
        self.pmf_s = 0.0
        self._in_pmf = 0

    def snapshot(self) -> tuple:
        return self.gen_rows, self.gen_s, self.pmf_seeds, self.pmf_s

    def wrap_generate(self, fn):
        meter = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if meter.depth:
                meter.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    meter.depth -= 1
            meter.depth = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                meter.gen_s += clock() - t0
                meter.depth = 0
            meter.gen_rows += len(out)
            if meter._in_pmf:
                meter.pmf_seeds += len(out)
            return out
        return wrapper

    def wrap_pmf(self, fn):
        meter = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            meter._in_pmf += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                meter.pmf_s += clock() - t0
                meter._in_pmf -= 1
        return wrapper


class Tracer:
    """Spans in flat arrays; span i is (names[i], parents[i], starts[i],
    ends[i], rows[i], extra[i]); parent -1 marks a root."""

    def __init__(self):
        self.codes: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.rows = array("q")
        self.extra = array("q")
        self.stack = [-1]

    def code(self, name: str) -> int:
        return self.codes.setdefault(name, len(self.codes))

    def _open(self, code: int, nrows: int, extra: int) -> int:
        sid = len(self.names)
        self.names.append(code)
        self.parents.append(self.stack[-1])
        self.rows.append(nrows)
        self.extra.append(extra)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self.code(name), 0, 0)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str, info):
        code = self.code(name)
        open_, close = self._open, self._close

        if info is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = open_(code, 0, 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            r = info(args)
            nrows, extra = r if isinstance(r, tuple) else (r, 0)
            sid = open_(code, nrows, extra)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)
        return wrapper

    def arrays(self) -> dict:
        return {"names": np.frombuffer(self.names, dtype=np.int32),
                "parents": np.frombuffer(self.parents, dtype=np.int64),
                "starts": np.frombuffer(self.starts, dtype=np.float64),
                "ends": np.frombuffer(self.ends, dtype=np.float64),
                "rows": np.frombuffer(self.rows, dtype=np.int64),
                "extra": np.frombuffer(self.extra, dtype=np.int64)}

    def save(self, path) -> None:
        names = sorted(self.codes, key=self.codes.get)
        np.savez_compressed(path, name_table=np.array(names),
                            **self.arrays())


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make) -> None:
        # read the raw attribute so a class sees its own function, not a
        # bound or inherited one
        old = vars(owner)[attr]
        setattr(owner, attr, make(old))
        self._undo.append((owner, attr, old))

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _module(name: str):
    return importlib.import_module(f"fourierprg.{name}")


def install_meter(meter: Meter, patches: Patches) -> None:
    core = _module("core")
    for cls in set(core.PLAN_REGISTRY.values()):
        if "generate_batch" in vars(cls):
            patches.replace(cls, "generate_batch", meter.wrap_generate)
    patches.replace(core.Generator, "output_pmf", meter.wrap_pmf)


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    for layer, mod, owner, attrs, info in POINTS:
        target = _module(mod)
        if owner is not None:
            target = getattr(target, owner)
        for attr in attrs:
            patches.replace(target, attr,
                            lambda fn, l=layer, i=info: tracer.wrap(fn, l, i))


def aggregate(spans: dict, names: list[str], root: str) -> dict:
    """Per-name totals over the spans under every root span called
    ``root``: self seconds, calls, rows and extra, plus total seconds.

    Calls, rows, extra and total seconds count only spans whose parent has
    another name, so a layer that re-enters itself is counted once; self
    seconds count every span. ``under`` maps child name to the number of
    such calls made directly from each parent name.
    """
    code = spans["names"]
    parent = spans["parents"]
    n = len(code)
    if n == 0:
        return {}
    dur = spans["ends"] - spans["starts"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
    self_s = dur - child_sum
    # spans are numbered in opening order, so each root's descendants are
    # the ids between it and the next root
    roots = np.flatnonzero(~has_parent)
    root_of = roots[np.searchsorted(roots, np.arange(n), side="right") - 1]
    keep = code[root_of] == names.index(root) if root in names \
        else np.zeros(n, dtype=bool)
    parent_code = np.where(has_parent, code[np.maximum(parent, 0)], -1)
    outer = keep & (parent_code != code)
    k = len(names)
    out = {}
    sums = {
        "self_s": np.bincount(code[keep], weights=self_s[keep], minlength=k),
        "total_s": np.bincount(code[outer], weights=dur[outer], minlength=k),
        "calls": np.bincount(code[outer], minlength=k),
        "rows": np.bincount(code[outer], weights=spans["rows"][outer],
                            minlength=k),
        "extra": np.bincount(code[outer], weights=spans["extra"][outer],
                             minlength=k),
    }
    for i, name in enumerate(names):
        out[name] = {key: float(v[i]) for key, v in sums.items()}
        out[name]["under"] = {}
    pairs = np.stack([parent_code[outer], code[outer]], axis=1)
    pairs = pairs[pairs[:, 0] >= 0]
    if len(pairs):
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        for (p, c), cnt in zip(uniq, counts):
            out[names[c]]["under"][names[p]] = int(cnt)
    return out
