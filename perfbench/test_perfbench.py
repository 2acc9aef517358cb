"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spans(rows):
    """rows: (name, parent, start, end, rows, extra) in opening order."""
    names = sorted({r[0] for r in rows})
    cols = list(zip(*rows))
    return names, {
        "names": np.array([names.index(n) for n in cols[0]], dtype=np.int32),
        "parents": np.array(cols[1], dtype=np.int64),
        "starts": np.array(cols[2], dtype=np.float64),
        "ends": np.array(cols[3], dtype=np.float64),
        "rows": np.array(cols[4], dtype=np.int64),
        "extra": np.array(cols[5], dtype=np.int64),
    }


def test_self_time_on_nested_spans():
    names, arrays = _spans([
        ("bench.round", -1, 0.0, 10.0, 0, 0),   # 0
        ("A", 0, 1.0, 6.0, 8, 2),               # 1
        ("B", 1, 2.0, 4.0, 3, 0),               # 2
        ("A", 1, 4.5, 5.5, 8, 2),               # 3: A re-entering itself
        ("B", 0, 7.0, 9.0, 5, 0),               # 4
        ("bench.setup", -1, 11.0, 12.0, 0, 0),  # 5
        ("A", 5, 11.2, 11.7, 1, 0),             # 6
    ])
    got = spans.aggregate(arrays, names, "bench.round")
    assert got["bench.round"]["self_s"] == pytest.approx(10 - 5 - 2)
    assert got["A"]["self_s"] == pytest.approx((5 - 2 - 1) + 1)
    assert got["B"]["self_s"] == pytest.approx(2 + 2)
    # the nested A is timed but counted once
    assert got["A"]["calls"] == 1 and got["A"]["rows"] == 8
    assert got["A"]["extra"] == 2 and got["A"]["total_s"] == pytest.approx(5)
    assert got["B"]["calls"] == 2 and got["B"]["rows"] == 8
    assert got["B"]["under"] == {"A": 1, "bench.round": 1}
    setup = spans.aggregate(arrays, names, "bench.setup")
    assert setup["A"]["self_s"] == pytest.approx(0.5)
    assert setup["B"]["calls"] == 0
    # self times partition each root
    assert sum(v["self_s"] for v in got.values()) == pytest.approx(10)


def test_tracer_wrappers_partition_time():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap(leaf, "leaf", None)

    def mid(xs):
        return [wrapped_leaf(x) for x in xs]

    wrapped_mid = tracer.wrap(mid, "mid", lambda args: len(args[0]))
    with tracer.span("bench.round"):
        assert wrapped_mid([1, 2, 3]) == [2, 3, 4]
    names = sorted(tracer.codes, key=tracer.codes.get)
    arrays = tracer.arrays()
    got = spans.aggregate(arrays, names, "bench.round")
    assert got["leaf"]["calls"] == 3 and got["mid"]["rows"] == 3
    assert got["leaf"]["under"] == {"mid": 3}
    total = float(arrays["ends"][0] - arrays["starts"][0])
    assert sum(v["self_s"] for v in got.values()) == pytest.approx(total)


@pytest.mark.parametrize("name", ["base-sample", "recursive-n128"])
def test_traced_and_untraced_agree(name):
    def gate(trace):
        w = workloads.make(name, 7, ROOT)
        patches = spans.Patches()
        tracer = spans.Tracer()
        try:
            spans.install_meter(spans.Meter(), patches)
            if trace:
                spans.install_tracer(tracer, patches)
            w.setup()
            checks = w.gate()
        finally:
            patches.undo()
        return w.digest(), [(c[0], c[1]) for c in checks], tracer

    plain_digest, plain_checks, _ = gate(False)
    traced_digest, traced_checks, tracer = gate(True)
    assert traced_digest == plain_digest
    assert traced_checks == plain_checks
    assert all(ok for _, ok in plain_checks)
    assert len(tracer.names) > 0


def test_patches_restore_originals():
    from fourierprg import fields, robp
    before = (robp.INWGenerator.generate_batch, fields.next_prime)
    patches = spans.Patches()
    spans.install_meter(spans.Meter(), patches)
    spans.install_tracer(spans.Tracer(), patches)
    assert robp.INWGenerator.generate_batch is not before[0]
    patches.undo()
    assert (robp.INWGenerator.generate_batch, fields.next_prime) == before


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER


def test_refuses_incomplete_checkout():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "base-sample",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode == 2
    assert proc.stdout == ""
