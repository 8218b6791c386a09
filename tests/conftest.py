"""Shared fixtures: the four worked contexts and their common variants."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import skewcodes
from skewcodes import (LinearMap, ScalarRestriction, field, inner_derivation,
                       load_preset, matrix_algebra, natural_module,
                       regular_module, verify_skew_derivation)
from skewcodes.presets import ExampleBundle, fyz_quotient as fyz_quotient_over
from skewcodes.fields import DTYPE


@pytest.fixture(scope="session")
def run_python():
    """Run a Python snippet in a child process that imports this skewcodes;
    the timeout turns a hang into a failure."""
    src = os.path.dirname(os.path.dirname(skewcodes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

    def run(script, *argv, timeout=5):
        return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
    return run


@pytest.fixture(scope="session")
def m2f4_inner():
    return load_preset("m2f4-inner")


@pytest.fixture(scope="session")
def f4c5_group():
    return load_preset("f4c5-group")


@pytest.fixture(scope="session")
def m2f4_diag():
    return load_preset("m2f4-diag")


@pytest.fixture(scope="session")
def fyz_quotient():
    return load_preset("fyz-quotient")


@pytest.fixture(scope="session")
def all_bundles(m2f4_inner, f4c5_group, m2f4_diag, fyz_quotient):
    return [m2f4_inner, f4c5_group, m2f4_diag, fyz_quotient]


@pytest.fixture(scope="session")
def series_bundles(m2f4_inner, f4c5_group, fyz_quotient):
    """Contexts where the power series ring exists."""
    return [m2f4_inner, f4c5_group, fyz_quotient]


@pytest.fixture(scope="session")
def odd_fyz_bundles():
    """The fyz quotient over GF(3) and GF(5): series rings in odd characteristic."""
    return [fyz_quotient_over(3), fyz_quotient_over(5)]


def m2_inner_over(p: int) -> ExampleBundle:
    """M2(GF(p^2)) restricted to GF(p), sigma the componentwise Frobenius and
    delta inner by E12: the odd-characteristic analogue of m2f4-inner."""
    res = ScalarRestriction(matrix_algebra(field(p, 2), 2))
    sigma = res.frobenius()
    e12 = res.to_restricted(res.parent.basis_element(1))
    ctx = verify_skew_derivation(res.algebra, sigma,
                                 inner_derivation(res.algebra, sigma, e12))
    return ExampleBundle(f"m2f{p * p}-inner", ctx, lambda b: [], restriction=res)


@pytest.fixture(scope="session")
def odd_laurent_bundles():
    """Laurent rings in characteristic 3 and 5 (m_delta = m_delta' = 3)."""
    return [m2_inner_over(3), m2_inner_over(5)]


@pytest.fixture(scope="session")
def laurent_bundles(m2f4_inner, f4c5_group):
    """Contexts where the Laurent ring exists."""
    return [m2f4_inner, f4c5_group]


@pytest.fixture(scope="session")
def f4c5_sigma_only(f4c5_group):
    """Same sigma as the group bundle, delta = 0."""
    a = f4c5_group.ctx.algebra
    return verify_skew_derivation(a, f4c5_group.ctx.sigma, LinearMap.zero(a))


@pytest.fixture(scope="session")
def module_a(m2f4_inner):
    """Rank-4 natural module of the restricted matrix context."""
    return natural_module(m2f4_inner.restriction)


@pytest.fixture(scope="session")
def module_b(f4c5_group):
    """Rank-5 regular module of the group algebra context."""
    return regular_module(f4c5_group.ctx.algebra)


def rand_coords(rng: random.Random, q: int, shape) -> np.ndarray:
    if isinstance(shape, int):
        shape = (1, shape)
        return _fill(rng, q, shape)[0]
    return _fill(rng, q, shape)


def _fill(rng: random.Random, q: int, shape) -> np.ndarray:
    rows, cols = shape
    arr = np.zeros((rows, cols), dtype=DTYPE)
    for i in range(rows):
        for j in range(cols):
            arr[i, j] = rng.randrange(q)
    return arr


def rand_element(rng: random.Random, algebra):
    return algebra.from_coords(rand_coords(rng, algebra.field.q, algebra.dim))
