"""Reproducible random form generators for property checks.

The default seed is fixed; the GRADIRA_SEED environment variable
overrides it, so property runs are deterministic per seed.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from . import scalars
from .forms import Form
from .calculus import exterior_derivative

DEFAULT_SEED = 2024


def rng_from_env():
    seed = os.environ.get("GRADIRA_SEED")
    return random.Random(int(seed) if seed else DEFAULT_SEED)


def random_rational(rng, span=4):
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def random_polynomial(rng, chart, degree=1, terms=2, symbols=None):
    syms = symbols if symbols is not None else list(chart.syms)
    out = scalars.ZERO
    for _ in range(terms):
        coeff = random_rational(rng)
        mono = scalars.ONE
        for _ in range(rng.randint(0, degree)):
            mono = mono * rng.choice(syms)
        out = out + mono * coeff
    return out


def random_form(rng, chart, degree, terms=3, poly_degree=1, symbols=None):
    from itertools import combinations

    indices = list(combinations(range(chart.m), degree))
    data = {}
    for _ in range(terms):
        idx = rng.choice(indices)
        data[idx] = scalars.sadd(
            data.get(idx, scalars.ZERO),
            random_polynomial(rng, chart, poly_degree, symbols=symbols),
        )
    return Form(chart, degree, data)


def random_hamiltonian_form(rng, scn):
    """A random polynomial Hamiltonian (n-1)-form on a canonical scenario:
    base-coefficient combinations of the generator families plus, for
    n >= 2, an exact polynomial part."""
    chart = scn.chart
    n = chart.n
    base_syms = [chart.syms[i] for i in range(n)]
    out = Form.zero(chart, n - 1)
    for _, gen in scn.hamiltonian_generators:
        if rng.random() < 0.6:
            out = out + random_polynomial(rng, chart, 2, symbols=base_syms) * gen
    # the exact part needs an (n-2)-form; the draw comes first, so the
    # draws at n >= 2 do not depend on n
    if rng.random() < 0.7 and n >= 2:
        out = out + exterior_derivative(
            random_form(rng, chart, n - 2, terms=2, poly_degree=2)
        )
    return out
