"""Composed generator: base case, xor composition, recursive build."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg import compose, fields
from fourierprg.bitseq import _schedule, to_ints
from fourierprg.compose import (ComposePlan, INWBase, XorCompose,
                                build_generator)
from fourierprg.core import (PLAN_REGISTRY, KWiseGenerator, SmallBiasLift,
                             UniformStub, plan_seed_bits, plan_to_generator,
                             sample_seeds)
from fourierprg.families import KWiseFamily
from fourierprg.highvar import G1Plan, GLargePlan
from fourierprg.reductions import (AlphabetStepPlan, DimStepPlan,
                                   dim_step_params)
from fourierprg.robp import INWGenerator
from fourierprg.shapes import EnumerateMode, fooling_error, random_shape
from test_apps import Fixed
from test_robp import edge_seeds, reference_expand_batch


def test_inw_base_small_instance_exactly_uniform():
    g = INWBase(2, 8, 0.1)
    assert g.exactly_uniform
    assert g.seed_bits == 12
    pmf = g.output_pmf()
    assert np.allclose(pmf, 1 / 256)


def test_inw_base_pow2_symbol_width():
    g = INWBase(4, 8, 0.1)
    assert g.bits_per_symbol == 2
    assert g.seed_bits == 24
    out = g.generate_batch(np.arange(1024, dtype=np.int64))
    assert out.min() >= 0 and out.max() < 4


def test_inw_base_nonpow2_mapping_budget():
    g = INWBase(3, 4, 0.1, delta_map=1e-2)
    assert g.bits_per_symbol >= 9  # ceil(log2(4*4*3/1e-2))
    seeds = np.arange(1 << min(g.seed_bits, 20), dtype=np.int64)
    out = g.generate_batch(seeds)
    assert out.min() >= 0 and out.max() < 3


def test_inw_base_plan_roundtrip():
    g = INWBase(2, 10, 0.05)
    g2 = plan_to_generator(json.loads(json.dumps(g.plan())))
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def reference_inw_base(g: INWBase, seeds) -> np.ndarray:
    """Symbols as first written: unpack every block into an (N, T*D)
    matrix of stream bits one bit at a time, then read each symbol with
    a weighted sum of its bits, mod m."""
    blocks = g.inw.expand_batch(seeds)
    D, T = g.inw.D, g.inw.T
    bits = np.zeros((len(blocks), T * D), dtype=np.int64)
    for t in range(T):
        for d in range(D):
            bits[:, t * D + d] = (blocks[:, t] >> (D - 1 - d)) & 1
    b = g.bits_per_symbol
    out = np.zeros((len(blocks), g.n), dtype=np.int64)
    for j in range(g.n):
        chunk = bits[:, j * b:(j + 1) * b]
        weights = 1 << np.arange(b - 1, -1, -1, dtype=np.int64)
        out[:, j] = (chunk @ weights) % g.m
    return out


# (m, n, block_bits): b = bits_per_symbol against the block width D
INW_BASE_CASES = [
    (2, 8, 6),          # T = 2, w = D: the exactly uniform case
    (3, 1, 6),          # T = 2 with a non-power-of-two m
    (2, 64, 6),         # b = 1 < D = 4
    (64, 16, 6),        # b = D = 6
    (4096, 64, 6),      # b = 12 = 2D, two blocks per symbol
    (3, 10, 6),         # b = 17, D = 6: three and four blocks per symbol
    (5, 20, 6),         # non-power-of-two m, b = 19 > D
    (8, 64, 12),        # D = 12 > 8
    (1000, 5, 6),       # b = 25
    (1 << 40, 3, 6),    # b = 40 > 32: 64-bit temporaries
    (10 ** 9 + 7, 2, 6),  # b = 44, non-power-of-two
]


@pytest.mark.parametrize("m,n,block_bits", INW_BASE_CASES)
def test_inw_base_matches_reference(m, n, block_bits):
    g = INWBase(m, n, 0.1, block_bits)
    rng = np.random.default_rng(m % 1000 + n)
    seeds = edge_seeds(g.seed_bits, 100, rng)
    want = reference_inw_base(g, seeds)
    got = g.generate_batch(seeds)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert got.min() >= 0 and got.max() < m
    if g.seed_bits <= 62:
        assert np.array_equal(g.generate_batch(seeds.astype(np.int64)), want)
    for seed, row in zip(seeds[-5:], want[-5:]):
        assert np.array_equal(g.generate(int(seed)), row)


@pytest.mark.parametrize("m,n,eps", [(4096, 64, 0.05), (2, 64, 0.1)])
def test_benchmark_base_nodes_run_on_uint8_states(m, n, eps):
    # the generators of the wide-chernoff and base-sample benchmark
    # workloads: one inw-base node whose INW states fit uint8
    g = build_generator(m, n, eps)
    assert isinstance(g, INWBase)
    seeds = edge_seeds(g.seed_bits, 300, np.random.default_rng(m + n))
    assert g.inw.expand_batch(seeds).dtype == np.uint8
    got = g.generate_batch(seeds)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_inw_base(g, seeds))


def _sized_batch(nbits: int, size: int, rng) -> np.ndarray:
    """size seeds: all zero, all ones and top-bit-set seeds first, then
    full-width random ones."""
    seeds = edge_seeds(nbits, max(size, 1), rng)
    return np.concatenate([seeds[-5:], seeds[:-5]])[:size]


# (m, n, block_bits): INW state widths up to 8 and 9-16 bits, power-of-two
# and other m
CHUNK_CASES = [(2, 64, 6), (4096, 64, 6), (5, 20, 6), (8, 64, 12),
               (3, 10, 6), (2, 8, 6)]


@pytest.mark.parametrize("m,n,block_bits", CHUNK_CASES)
def test_inw_base_chunks_match_reference(monkeypatch, m, n, block_bits):
    # generate_batch expands and assembles chunk by chunk of seeds; a
    # 7-row chunk puts chunk edges inside small batches
    g = INWBase(m, n, 0.1, block_bits)
    monkeypatch.setattr(compose, "_CHUNK_BYTES", 8 * n * 7)
    rng = np.random.default_rng(m + n + block_bits)
    for size in (1, 6, 7, 8, 3 * 7 + 5):
        seeds = _sized_batch(g.seed_bits, size, rng)
        assert np.array_equal(g.inw.expand_batch(seeds),
                              reference_expand_batch(g.inw, seeds))
        got = g.generate_batch(seeds)
        assert got.shape == (size, n) and got.dtype == np.int64
        assert np.array_equal(got, reference_inw_base(g, seeds))


def test_chunk_cases_cover_both_state_dtypes():
    widths = {INWBase(m, n, 0.1, b).inw.state_bits for m, n, b in CHUNK_CASES}
    assert min(widths) <= 8 < max(widths) <= 16


def test_inw_base_chunks_at_full_size():
    # the base-sample node at its own chunk size: 4096 rows at n = 64
    g = build_generator(2, 64, 0.1)
    chunk = compose._CHUNK_BYTES // (8 * g.n)
    rng = np.random.default_rng(64)
    for size in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        seeds = _sized_batch(g.seed_bits, size, rng)
        got = g.generate_batch(seeds)
        # symbols reach the consumer coordinate-major
        assert got.flags.f_contiguous and got.dtype == np.int64
        assert np.array_equal(got, reference_inw_base(g, seeds))


def test_inw_base_refuses_state_above_16_bits():
    # D = 4 at (2, 64): state_extra 12 fills 16 bits, 13 is one too many
    assert INWBase(2, 64, 0.1, 6, 12).inw.state_bits == 16
    for args in ((6, 13), (6, 20), (20, 2)):
        with pytest.raises(ValueError, match="inw_block_bits or "
                                             "inw_state_extra"):
            INWBase(2, 64, 0.1, *args)


def test_inw_base_refuses_symbols_beyond_int64():
    # n <= n0, so each tree is one inw-base node
    with pytest.raises(ValueError, match="inw-base symbols are int64"):
        build_generator(2 ** 64, 8, 0.1)


def test_inw_base_at_the_int64_symbol_limit():
    g = build_generator(2 ** 63, 8, 0.1)
    assert isinstance(g, INWBase) and g.seed_bits == 90
    seeds = edge_seeds(g.seed_bits, 16, np.random.default_rng(63))
    out = g.generate_batch(seeds)
    assert out.dtype == np.int64 and out.min() >= 0
    assert out.max() >= 1 << 62  # the top symbol bit is reached


def test_inw_base_case_shapes():
    # the cases above really cover the schedule shapes they claim
    spans = {}
    for m, n, block_bits in INW_BASE_CASES:
        g = INWBase(m, n, 0.1, block_bits)
        _, block, _, _ = _schedule((g.bits_per_symbol,) * n, g.inw.D)
        spans[(m, n)] = (g.bits_per_symbol, g.inw.D, g.inw.T, len(block))
    assert spans[(2, 8)][2] == spans[(3, 1)][2] == 2
    assert spans[(2, 64)][0] < spans[(2, 64)][1]
    assert spans[(64, 16)][0] == spans[(64, 16)][1]
    assert spans[(3, 10)][3] >= 3
    assert spans[(8, 64)][1] > 8
    assert spans[(1 << 40, 3)][0] > 32


def test_symbol_pieces_cover_stream():
    # the symbol schedule of bitseq.read_fields: every stream bit a symbol
    # needs comes from exactly one piece, placed at its bit of the symbol
    for n, b, D in ((5, 3, 4), (7, 17, 6), (4, 6, 6), (3, 44, 6), (9, 1, 5)):
        dtype, block, up, down = _schedule((b,) * n, D)
        bits = np.iinfo(dtype).bits
        assert len(block) <= -(-b // D) + 1
        for j in range(n):
            covered = set()
            for k in range(len(block)):
                t = int(block[k, j])
                first = t * D + int(up[k, j, 0]) - (bits - D)
                last = min((j + 1) * b, (t + 1) * D)
                assert int(down[k, j, 0]) == bits - (j + 1) * b + first
                piece = range(first, last)
                # a repeated piece is the symbol's first one again
                assert covered.isdisjoint(piece) or k and \
                    (t, first) == (int(block[0, j]), j * b)
                covered.update(piece)
            assert covered == set(range(j * b, (j + 1) * b))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 300), n=st.integers(1, 24),
       block_bits=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_inw_base_batch_scalar_replay_agree(m, n, block_bits, seed):
    g = INWBase(m, n, 0.1, block_bits)
    seeds = edge_seeds(g.seed_bits, 6, np.random.default_rng(seed))
    out = g.generate_batch(seeds)
    assert out.shape == (len(seeds), n)
    assert out.min() >= 0 and out.max() < m
    assert np.array_equal(out, reference_inw_base(g, seeds))
    for s, row in zip(seeds, out):
        assert np.array_equal(g.generate(int(s)), row)
    replay = plan_to_generator(json.loads(json.dumps(g.plan())))
    assert np.array_equal(replay.generate_batch(seeds), out)


def test_xor_compose_mismatch():
    with pytest.raises(ValueError):
        XorCompose(UniformStub(2, 4), UniformStub(2, 5))


def test_xor_compose_constant_shift():
    # xor with a constant-1 child is a cyclic shift of the other child
    left = UniformStub(3, 2)
    right = Fixed(3, [1, 1])
    g = XorCompose(left, right)
    assert g.seed_bits == left.seed_bits
    for seed in range(9):
        assert np.array_equal(g.generate(seed),
                              (left.generate(seed) + 1) % 3)


def test_xor_compose_uniform_child_gives_uniform_output():
    g = XorCompose(UniformStub(2, 3), Fixed(2, [1, 1, 1]))
    codes = [int("".join(map(str, g.generate(s))), 2) for s in range(8)]
    assert sorted(codes) == list(range(8))


def test_xor_compose_plan_roundtrip():
    g = XorCompose(UniformStub(2, 4), INWBase(2, 4, 0.1))
    g2 = plan_to_generator(g.plan())
    assert g2.seed_bits == g.seed_bits
    seeds = np.arange(256, dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def test_build_generator_validation():
    with pytest.raises(ValueError):
        build_generator(1, 4, 0.1)
    with pytest.raises(ValueError):
        build_generator(2, 0, 0.1)
    with pytest.raises(ValueError):
        build_generator(2, 4, 1.5)


def test_inw_base_refuses_state_extra_below_one():
    # no silent clamp: a plan that names state_extra 0 is refused too
    plan = INWBase(2, 128, 0.1).plan()
    plan["state_extra"] = 0
    for build in (lambda: INWBase(2, 128, 0.1, state_extra=0),
                  lambda: INWBase(2, 128, 0.1, state_extra=-5),
                  lambda: plan_to_generator(plan)):
        with pytest.raises(ValueError, match="state_extra must be >= 1"):
            build()


def test_build_generator_refuses_sub_float_budget():
    with pytest.raises(ValueError):
        build_generator(2, 8, 1e-14)


def test_build_generator_base_case_small_n():
    g = build_generator(2, 8, 0.1)
    assert isinstance(g, INWBase)
    assert (g.m, g.n) == (2, 8)


def test_build_generator_recursive_case():
    g = build_generator(2, 128, 0.2)
    assert isinstance(g, XorCompose)
    assert (g.m, g.n) == (2, 128)
    seeds = np.arange(10, dtype=object)
    out = g.generate_batch(seeds)
    assert out.shape == (10, 128)
    assert out.min() >= 0 and out.max() < 2
    # full-width seeds: batch, scalar and plan replay agree
    wide = np.empty(4, dtype=object)
    wide[:] = list(to_ints(sample_seeds(np.random.default_rng(5),
                                        g.seed_bits, 3))) \
        + [(1 << g.seed_bits) - 1]
    out = g.generate_batch(wide)
    assert out.shape == (4, 128)
    assert out.min() >= 0 and out.max() < 2
    for seed, row in zip(wide, out):
        assert np.array_equal(g.generate(seed), row)
    replay = plan_to_generator(json.loads(json.dumps(g.plan())))
    assert np.array_equal(replay.generate_batch(wide), out)


def test_n128_tree_products_per_batch(monkeypatch):
    # each symbol computed once and each GF(2^t <= 16) Horner step one
    # log/exp lookup: one 4-row batch of the n = 128 tree made 205
    # vectorized and 384 scalar GF(2^t) products when the dimension step
    # evaluated every bucket's polynomial at every coordinate, G1 ran its
    # permutation once per bucket and Horner began by multiplying zero,
    # and 99 vectorized products and 16 Horner calls while those steps
    # were products and G1 ran one Horner per bucket, and 27 vectorized
    # and 192 scalar products while the INW levels over GF(2^10) were
    # products and the GF(2^t > 16) products one python product each.
    # Vectorized products are pinned over both field kinds, so a family
    # that moves from one kind to the other shows here too
    g = build_generator(2, 128, 0.1)
    seeds = sample_seeds(np.random.default_rng(4), g.seed_bits, 4)
    g.generate_batch(seeds)  # field tables outside the count
    calls = {(fields.GF2Field, "mul_vec"): 0, (fields.GF2Field, "mul"): 0,
             (fields.PrimeField, "mul_vec"): 0, (KWiseFamily, "horner"): 0}

    def counting(owner, name):
        method = getattr(owner, name)

        def wrapper(self, a, b):
            calls[owner, name] += 1
            return method(self, a, b)
        return wrapper

    for owner, name in calls:
        monkeypatch.setattr(owner, name, counting(owner, name))
    g.generate_batch(seeds)
    assert calls[fields.GF2Field, "mul_vec"] == 11
    assert calls[fields.PrimeField, "mul_vec"] == 10
    assert calls[KWiseFamily, "horner"] == 9
    assert calls[fields.GF2Field, "mul"] == 0


def test_n128_tree_finds_no_modulus_above_degree_64(run_python):
    # the tree's only GF(2^126) family has k = 1 and never multiplies, so
    # its modulus (a search of about 10 ms) is never looked for
    code = ("import numpy as np\n"
            "from fourierprg import fields\n"
            "from fourierprg.compose import build_generator\n"
            "from fourierprg.core import sample_seeds\n"
            "g = build_generator(2, 128, 0.1)\n"
            "g.generate_batch(sample_seeds(np.random.default_rng(0), "
            "g.seed_bits, 4))\n"
            "print(max(fields._MODULI))\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 64


def test_n128_tree_never_imports_numpy_ma(run_python):
    # np.unique without return_inverse imports numpy.ma on first use,
    # about 35 ms of a fresh process's set-up
    code = ("import sys\n"
            "import numpy as np\n"
            "from fourierprg.compose import build_generator\n"
            "from fourierprg.core import sample_seeds\n"
            "g = build_generator(2, 128, 0.1)\n"
            "g.generate_batch(sample_seeds(np.random.default_rng(0), "
            "g.seed_bits, 1))\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("n", [256, 1024])
def test_tree_refuses_before_glarge_runs(monkeypatch, n):
    # the dimension step's alphabet step refuses m > 2^63 on every seed,
    # and xor-compose generates that child first, so glarge never runs
    g = build_generator(2, n, 0.1)
    calls = []
    monkeypatch.setattr(GLargePlan, "generate_batch",
                        lambda self, seeds: calls.append(len(seeds)))
    seeds = sample_seeds(np.random.default_rng(n), g.seed_bits, 16)
    with pytest.raises(ValueError, match="exceeds the limit 2\\^63"):
        g.generate_batch(seeds)
    assert calls == []


def test_build_generator_plan_replay():
    g = build_generator(2, 128, 0.2)
    d = json.loads(json.dumps(g.plan()))
    g2 = plan_to_generator(d)
    assert g2.seed_bits == g.seed_bits == plan_seed_bits(d)
    seeds = np.arange(5, dtype=object)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def test_build_generator_alphabet_reduction_path():
    # m far above n^4 forces alphabet steps on top
    g = build_generator(1 << 16, 2, 0.1)
    assert (g.m, g.n) == (1 << 16, 2)
    out = g.generate_batch(np.arange(4, dtype=object))
    assert out.min() >= 0 and out.max() < 1 << 16


def test_composed_generator_fools_small_shapes_exactly():
    # the (2, 8) build is exactly uniform, so every shape is fooled to
    # numerical precision
    g = build_generator(2, 8, 0.1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        err, _ = fooling_error(random_shape(rng, 8, 2), g, EnumerateMode())
        assert err <= 1e-10


def test_compose_plan_knobs_reach_base_case():
    plan = ComposePlan(n0=4, inw_block_bits=4)
    g = build_generator(2, 4, 0.1, plan)
    assert isinstance(g, INWBase)
    assert g.block_bits == 4


def carrier_instances() -> list:
    """At least one small instance of every registered plan type; several
    have seeds wider than 62 bits over fields narrow enough for int64."""
    t, _k, r0 = dim_step_params(2, 4, 0.5, 0.5)
    return [
        UniformStub(3, 5),
        KWiseGenerator(2, 8, 3),
        KWiseGenerator(3, 16, 8),  # 144-bit seed over an 18-bit prime field
        SmallBiasLift(8, 0.25),
        INWGenerator(4, 8, 6),
        INWGenerator(8, 16, 10),
        INWBase(2, 16, 0.1),
        INWBase(5, 12, 0.1),
        G1Plan(2, 8, p=2),
        G1Plan(3, 16, p=2),
        GLargePlan(2, 16, 0.2, p=2),
        AlphabetStepPlan(17, 2, 0.5, UniformStub(4, 2)),
        DimStepPlan(2, 4, 0.5, UniformStub(1 << r0, t), 0.5),
        XorCompose(KWiseGenerator(2, 8, 3), SmallBiasLift(8, 0.25)),
        build_generator(1 << 16, 2, 0.1),
        build_generator(2, 128, 0.2),
    ]


@pytest.mark.parametrize("g", carrier_instances(),
                         ids=lambda g: f"{g.plan_type}-{g.seed_bits}")
def test_every_carrier_gives_the_same_rows(g):
    # random full-width seeds, zero, all ones and the top bit alone
    r = g.seed_bits
    edges = np.zeros((3, r), dtype=np.uint8)
    edges[1] = 1
    edges[2, :1] = 1
    bits = np.concatenate([sample_seeds(np.random.default_rng(r), r, 5),
                           edges])
    want = g.generate_batch(bits)
    assert want.shape == (len(bits), g.n)
    ints = to_ints(bits)
    carriers = [ints, list(ints)]
    if max(ints) < 1 << 63:
        carriers.append(ints.astype(np.int64))
    for seeds in carriers:
        assert np.array_equal(g.generate_batch(seeds), want)
    for seed, row in zip(ints, want):
        assert np.array_equal(g.generate(int(seed)), row)


def test_carrier_instances_cover_every_plan_type():
    assert {g.plan_type for g in carrier_instances()} == set(PLAN_REGISTRY)
