"""The plan codec on every registered node type: pinned plan bytes, plan
replay and the refusal of incomplete plans."""

import hashlib
import json

import numpy as np
import pytest

from fourierprg.compose import (ComposePlan, INWBase, XorCompose,
                                build_generator)
from fourierprg.core import (PLAN_REGISTRY, KWiseGenerator, SmallBiasLift,
                             UniformStub, plan_to_generator, sample_seeds)
from fourierprg.highvar import G1Plan, GLargePlan
from fourierprg.reductions import (AlphabetStepPlan, DimStepPlan,
                                   dim_step_params)
from fourierprg.robp import INWGenerator


def _dim_step():
    t, _k, r0 = dim_step_params(2, 4, 0.5, 0.5)
    return DimStepPlan(2, 4, 0.5, UniformStub(1 << r0, t), 0.5)


# (example, sha256 of json.dumps(plan, sort_keys=True)); pinned, so any
# change to a node's plan bytes shows here
EXAMPLES = {
    "uniform-stub": (
        lambda: UniformStub(3, 4),
        "a36658cb4203a9d703e7bb70a70b8cc722832b128ca077b19c5e3006cacd8d23"),
    "kwise": (
        lambda: KWiseGenerator(3, 8, 3),
        "deee93012824cf1c2ef9b1b9ea312d2f635153b133bd8efe4b64b1d8c6d1212d"),
    "small-bias-lift": (
        lambda: SmallBiasLift(16, 1 / 64),
        "b94583bc6bb30ed20cce1f536566e2980ee7b827c96b6043fc14725f7e50ae59"),
    "inw": (
        lambda: INWGenerator(3, 8, 5),
        "9d827cbe8a56ee2379d48ebdd8f7638e781d6c8570d98aa525b7bf11051f4309"),
    "inw-base": (
        lambda: INWBase(5, 12, 0.1),
        "0975b3052731709d9fa12e807b2e3b28f7829f59ebe3583d86985700e6a49b09"),
    "xor-compose": (
        lambda: XorCompose(KWiseGenerator(4, 6, 2), INWBase(4, 6, 0.1)),
        "f3c383d3f25e12ca811ae4b7ea132a69134d1d8f9eca007792f8b7bf983821b3"),
    "g1": (
        lambda: G1Plan(2, 16, 4),
        "17bb59d9ed1b46d9973f8acbc107cef441fef894d5af5b4514e184305ca4b2e6"),
    "glarge": (
        lambda: GLargePlan(2, 8, 0.25, 2),
        "08147c4571d1768f317584908dab319124d2fe8b735b94ae0395c4a993a35197"),
    "alphabet-step": (
        lambda: AlphabetStepPlan(17, 2, 0.1, UniformStub(4, 2), 4.0),
        "7cb786a6ebe94ad73afac3d619de88c011662b574fb8006778c67d497f33a5f9"),
    "dim-step": (
        _dim_step,
        "a92839aa21ffe1568f262f62b07241d39e46bed59f6db493b0e682ad14ba6018"),
}

# build_generator trees: the base case at small and wide alphabets, the
# recursive tree and a tree forced deeper by a small n0
BUILT = {
    (2, 64, 0.1, 64):
        "9d3e517559f61865dd118fb40e25ef9b85b31a1d9c3e54b188ccb44fba362231",
    (2, 128, 0.1, 64):
        "7ee5e91854ae414c470444b8c77b9c71423254f92be9d75a53b4770a0c808837",
    (4096, 64, 0.05, 64):
        "6c43ae0a611233cfb5cf7530fd4510e757ca0c67c68df2238e78299f393ce637",
    (2 ** 40, 16, 0.1, 64):
        "21b4c25f935ad0d477a8ee33091d057ae17d0d7361b847e3523ba8b5262d8e3a",
    (2, 32, 0.1, 8):
        "7fdd052d7639a4beeaff616851b16ca58aabc8cac8f7579d012a01cd3270f5f0",
}


def _check_codec(g, sha):
    text = json.dumps(g.plan(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    replay = plan_to_generator(json.loads(text))
    assert json.dumps(replay.plan(), sort_keys=True) == text
    seeds = sample_seeds(np.random.default_rng(g.seed_bits), g.seed_bits, 8)
    seeds = np.vstack([seeds, np.ones((1, g.seed_bits), dtype=np.uint8)])
    assert np.array_equal(g.generate_batch(seeds),
                          replay.generate_batch(seeds))


def test_every_registered_type_has_an_example():
    assert set(EXAMPLES) == set(PLAN_REGISTRY)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_plan_codec(name):
    make, sha = EXAMPLES[name]
    g = make()
    assert g.plan()["type"] == name
    assert "plan" not in vars(type(g)) and "from_plan" not in vars(type(g))
    _check_codec(g, sha)


@pytest.mark.parametrize("key", sorted(BUILT))
def test_built_plan_codec(key):
    m, n, eps, n0 = key
    _check_codec(build_generator(m, n, eps, ComposePlan(n0=n0)), BUILT[key])


@pytest.mark.parametrize("name, field", [
    ("kwise", "delta_map"),
    ("inw-base", "delta"),
    ("alphabet-step", "C"),
    ("dim-step", "C"),
])
def test_plan_missing_field_refused(name, field):
    plan = EXAMPLES[name][0]().plan()
    del plan[field]
    with pytest.raises(ValueError, match=repr(field)):
        plan_to_generator(plan)


def test_plan_missing_child_refused():
    plan = EXAMPLES["xor-compose"][0]().plan()
    plan["children"].pop()
    with pytest.raises(ValueError, match="'right'"):
        plan_to_generator(plan)


@pytest.mark.parametrize("name, path, key, value", [
    ("kwise", [], "seed_bits", 999),
    ("kwise", [], "local_seed_bits", 5),
    ("kwise", [], "bogus", 1),
    ("xor-compose", [1], "seed_bits", 1),
    ("xor-compose", [0], "bogus", 0),
    ("inw-base", [], "inw", {"D": 1, "T": 2, "state_bits": 1}),
    ("glarge", [], "spreading", {}),
    ("dim-step", [], "t", 0),
    ("dim-step", [0], "local_seed_bits", 0),
])
def test_plan_that_lies_refused(name, path, key, value):
    # a stale derived value or an unknown key, at the root or in a child
    plan = EXAMPLES[name][0]().plan()
    node = plan
    for i in path:
        node = node["children"][i]
    node[key] = value
    with pytest.raises(ValueError, match=repr(key)):
        plan_to_generator(plan)


def test_plan_extra_child_refused():
    plan = EXAMPLES["xor-compose"][0]().plan()
    plan["children"].append(plan["children"][0])
    with pytest.raises(ValueError, match="children"):
        plan_to_generator(plan)


def _strip_derived(plan: dict) -> dict:
    """The plan with only its type, fields and children."""
    derived = {"seed_bits", "local_seed_bits",
               *PLAN_REGISTRY[plan["type"]].plan_info}
    out = {k: v for k, v in plan.items() if k not in derived}
    if "children" in plan:
        out["children"] = [_strip_derived(c) for c in plan["children"]]
    return out


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_plan_derived_keys_optional(name):
    # stripped, the small-bias-lift example is the plan perfbench's
    # enum-exact workload writes by hand
    g = EXAMPLES[name][0]()
    replay = plan_to_generator(_strip_derived(g.plan()))
    assert json.dumps(replay.plan(), sort_keys=True) == json.dumps(
        g.plan(), sort_keys=True)

