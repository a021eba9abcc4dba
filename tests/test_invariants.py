"""Assorted module-level invariants from the contract that have no other
natural home."""

import os
import subprocess
import sys

import sympy

from gradira import (
    Form,
    bracket_ext1,
    exterior_derivative,
    is_hamiltonian,
    wedge,
    yang_mills,
)
from gradira.sampling import random_hamiltonian_form, rng_from_env
from naive import decompose_s1_power


def test_first_extension_bracket_is_closed(red2):
    # {Omega^{n-1}_H, Omega^a_H[1]} stays inside Omega^a_H[1]
    st = red2.structure
    rng = rng_from_env()
    ham = red2.hamiltonian_form
    for _ in range(3):
        alpha = random_hamiltonian_form(rng, red2)
        out = bracket_ext1(alpha, ham, st)
        assert decompose_s1_power(st, exterior_derivative(out)) is not None


def test_yang_mills_with_lorentzian_signature():
    ym = yang_mills(3, "abelian", dim=1, signature=(1, -1, -1))
    ok, diag = is_hamiltonian(ym.hamiltonian_form, ym.structure)
    assert ok, diag
    # the quadratic term carries the metric signs
    h_vol = ym.hamiltonian_form.data[(0, 1, 2)]
    ch = ym.chart
    assert sympy.diff(h_vol, ch.sym("pt12_1"), 2) == sympy.Rational(1, 1) * 1
    assert sympy.diff(h_vol, ch.sym("pt23_1"), 2) == -1


def test_seed_env_var_controls_sampler():
    env = dict(os.environ, GRADIRA_SEED="7")
    code = (
        "from gradira.sampling import rng_from_env;"
        "print(rng_from_env().randint(0, 10**6))"
    )
    a = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    b = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    c = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ, GRADIRA_SEED="8"))
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_hamiltonian_rejects_non_tower_members(red2):
    # an n-form whose differential leaves (S^1)^{n+1}: impossible on the
    # canonical chart (S^1 is everything), so check the S^{n+1}[n] gate
    # with a dp ^ dp obstruction instead
    ch, st = red2.chart, red2.structure
    bad = red2.hamiltonian_form + Form.scalar_form(ch, ch.sym("y1")) * wedge(
        Form.d_coord(ch, "p1_1"), Form.d_coord(ch, "p2_1")
    )
    ok, diag = is_hamiltonian(bad, st)
    assert not ok
