"""Explicit pseudorandom generators for product tests over [m]^n.

The library builds seeded generators whose outputs fool Fourier shapes
(products of per-coordinate unit-disk functions) and, through standard
reductions, halfspaces, modular linear tests, combinatorial shapes, and
a randomness-efficient Chernoff-style sampler. A verification harness
measures fooling error exactly against brute-force oracles at desk scale.
"""

from .apps import (ChernoffSampler, CombinatorialShape, GeneralizedHalfspace,
                   Halfspace, ModularTest, chernoff_tail_check,
                   comb_shape_error, gen_halfspace_error, halfspace_error,
                   modular_error)
from .compose import ComposePlan, build_generator
from .core import (Generator, UniformStub, plan_seed_bits, plan_to_generator,
                   sample_seeds)
from .families import CombinedHashFamily, KWiseFamily, SmallBiasFamily
from .metrics import IntPMF, d_ft, d_k, d_tv, fourier_lemma_check, linear_pmf
from .robp import INWGenerator, ROBP, inw_for_robp
from .shapes import (EnumerateMode, FourierShape, SampleMode, fooling_error,
                     random_shape, tvar, uniform_expectation)

__all__ = [
    "ChernoffSampler", "CombinatorialShape", "CombinedHashFamily",
    "ComposePlan", "EnumerateMode", "FourierShape",
    "GeneralizedHalfspace", "Generator", "Halfspace", "INWGenerator",
    "IntPMF", "KWiseFamily", "ModularTest",
    "ROBP", "SampleMode", "SmallBiasFamily",
    "UniformStub", "build_generator", "chernoff_tail_check",
    "comb_shape_error", "d_ft", "d_k", "d_tv",
    "fooling_error", "fourier_lemma_check", "gen_halfspace_error",
    "halfspace_error", "inw_for_robp", "linear_pmf", "modular_error",
    "plan_seed_bits", "plan_to_generator", "random_shape", "sample_seeds",
    "tvar", "uniform_expectation",
]
