"""Classical SAT core: formula construction, DIMACS I/O, the brute-force
oracle, random instance generation, and the local-search baseline.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_bitstring, schoening_solve
from zenosat.satcore import (
    CnfFormula,
    SatError,
    TWO_SAT_TWO_SOLUTIONS,
    TWO_SAT_UNIQUE,
    TWO_SAT_UNSAT,
    _ENUM_CAP,
    assignment_bits,
    enumerate_solutions,
    evaluate,
    formula,
    is_satisfiable,
    num_clauses_for,
    parse_dimacs,
    random_instance,
    random_unique_solution_instance,
    to_bitstring,
    write_dimacs,
)


# ---------------------------------------------------------------- structures


def test_formula_validation():
    with pytest.raises(SatError):
        formula(2, (1, 2), (1,))  # mixed clause widths
    with pytest.raises(SatError):
        formula(2, (1, 1))  # repeated variable in a clause
    with pytest.raises(SatError):
        formula(2, (1, 3))  # variable out of range
    with pytest.raises(SatError):
        CnfFormula(2, ())  # no clauses
    with pytest.raises(SatError):
        CnfFormula(0, ((1, 2),))  # no variables


@pytest.mark.parametrize("lit", [0, True, 1.0, -3], ids=["zero", "bool", "float", "-3"])
def test_formula_refuses_literal(lit):
    # literals are signed DIMACS ints: nonzero, a plain int, |lit| <= num_vars
    with pytest.raises(SatError, match="literal"):
        CnfFormula(2, ((lit, 2),))


def test_formula_properties():
    f = TWO_SAT_UNIQUE
    assert f.k == 2
    assert f.num_clauses == 3


def test_bitstring_roundtrip():
    # convention: a true variable renders as bit '1', its bit in a basis index
    assert to_bitstring((True, False)) == "10"
    assert from_bitstring("10") == (True, False)
    assert from_bitstring(to_bitstring((True, True, False))) == (True, True, False)


# ---------------------------------------------------------------- DIMACS


def test_dimacs_roundtrip():
    f = TWO_SAT_UNIQUE
    text = write_dimacs(f)
    assert text.splitlines() == ["p cnf 2 3", "1 2 0", "1 -2 0", "-1 -2 0"]
    assert parse_dimacs(text) == f


def test_dimacs_parses_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1 2\n3 0\n-1 -2 -3 0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 3
    assert f.clauses == ((1, 2, 3), (-1, -2, -3))


@pytest.mark.parametrize(
    "text",
    [
        "1 2 0\n",  # clause before header
        "p cnf 2 2\n1 2 0\n",  # declared count mismatch
        "p cnf 2 1\n1 2\n",  # unterminated clause
        "p cnf 2 1\n1 3 0\n",  # literal out of range
        "p sat 2 1\n1 2 0\n",  # wrong format tag
    ],
)
def test_dimacs_rejects_malformed(text):
    with pytest.raises(SatError):
        parse_dimacs(text)


# ---------------------------------------------------------------- evaluation


def test_evaluate_unique_problem_truth_table():
    sat = {(True, False)}
    for a in [(x, y) for x in (True, False) for y in (True, False)]:
        assert evaluate(TWO_SAT_UNIQUE, a) == (a in sat)


def test_evaluate_rejects_wrong_length():
    with pytest.raises(SatError):
        evaluate(TWO_SAT_UNIQUE, (True,))


def test_builtin_problem_solution_sets():
    assert enumerate_solutions(TWO_SAT_UNIQUE).assignments == ((True, False),)
    assert set(enumerate_solutions(TWO_SAT_TWO_SOLUTIONS).assignments) == {
        (True, False),
        (False, True),
    }
    assert enumerate_solutions(TWO_SAT_UNSAT).count == 0
    assert is_satisfiable(TWO_SAT_UNIQUE)
    assert not is_satisfiable(TWO_SAT_UNSAT)


@pytest.mark.parametrize("n", range(1, 7))
def test_assignment_bits_follow_tensor_factor_order(n):
    # qubit and variable 1 is the most significant bit, as qlinalg declares
    rng = np.random.default_rng(n)
    for index in (0, (1 << n) - 1, int(rng.integers(1 << n)),
                  np.arange(1 << n), rng.integers(1 << n, size=(3, 5))):
        bits = assignment_bits(index, n)
        assert bits.shape == np.shape(index) + (n,)
        assert np.array_equal(bits, np.stack(np.unravel_index(index, (2,) * n), axis=-1))


def test_enumeration_cap():
    # refused before any assignment table is built
    f = formula(_ENUM_CAP + 1, (1, 2))
    with pytest.raises(SatError, match="refusing brute force"):
        enumerate_solutions(f)
    with pytest.raises(SatError, match="refusing brute force"):
        is_satisfiable(f)


@st.composite
def random_formulas(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    m = draw(st.integers(min_value=1, max_value=8))
    clauses = []
    for _ in range(m):
        variables = draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
        clauses.append(tuple(s * v for v, s in zip(variables, signs)))
    return CnfFormula(n, tuple(clauses))


def _evaluate_naive(f, assignment):
    return all(
        any(
            (not assignment[-lit - 1]) if lit < 0 else assignment[lit - 1]
            for lit in cl
        )
        for cl in f.clauses
    )


@settings(max_examples=80, deadline=None)
@given(random_formulas(), st.data())
def test_evaluate_matches_naive_reference(f, data):
    a = tuple(
        data.draw(st.lists(st.booleans(), min_size=f.num_vars, max_size=f.num_vars))
    )
    assert evaluate(f, a) == _evaluate_naive(f, a)


@settings(max_examples=40, deadline=None)
@given(random_formulas())
def test_enumeration_matches_exhaustive_evaluate(f):
    expected = set()
    for idx in range(1 << f.num_vars):
        a = tuple(bool((idx >> (f.num_vars - j)) & 1) for j in range(1, f.num_vars + 1))
        if evaluate(f, a):
            expected.add(a)
    sols = enumerate_solutions(f)
    assert set(sols.assignments) == expected
    assert is_satisfiable(f) == bool(expected)


# ---------------------------------------------------------------- generation


def test_num_clauses_rounds_half_up():
    assert num_clauses_for(2, 1.25) == 3  # 2.5 -> 3
    assert num_clauses_for(2, 1.2) == 2  # 2.4 -> 2
    assert num_clauses_for(5, 1.0) == 5
    assert num_clauses_for(3, math.pi) == 9  # 9.42 -> 9


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_num_clauses_refuses_non_finite_alpha(alpha):
    # inf ended in an OverflowError and nan in a ValueError, both tracebacks
    with pytest.raises(SatError, match="must be finite"):
        num_clauses_for(3, alpha)


def test_random_instance_shape_and_determinism():
    f1 = random_instance(6, 2.0, 3, np.random.default_rng(7))
    f2 = random_instance(6, 2.0, 3, np.random.default_rng(7))
    assert f1 == f2
    assert f1.num_clauses == 12
    for cl in f1.clauses:
        variables = [abs(lit) for lit in cl]
        assert len(set(variables)) == 3
        assert all(1 <= v <= 6 for v in variables)
    # rng.choice(n, k) then rng.random(k) per clause, a draw below 0.5 negating
    assert f1.clauses == (
        (-4, -5, 6), (4, -1, -5), (6, 5, 2), (2, -5, -6), (5, -1, 4), (-1, -4, -5),
        (-1, -5, 6), (6, 1, 4), (4, 3, 1), (-1, -3, -4), (5, 1, 3), (-2, -4, -3),
    )
    assert all(type(lit) is int for cl in f1.clauses for lit in cl)


def test_random_instance_rejects_wide_clauses():
    with pytest.raises(SatError):
        random_instance(2, 1.0, 3, np.random.default_rng(0))
    with pytest.raises(SatError):
        random_instance(4, 0.05, 2, np.random.default_rng(0))  # zero clauses


def test_random_unique_solution_instance():
    rng = np.random.default_rng(11)
    f = random_unique_solution_instance(4, 1.5, 2, rng)
    assert enumerate_solutions(f).count == 1


def test_sign_balance_is_fair():
    rng = np.random.default_rng(3)
    f = random_instance(10, 40.0, 3, rng)
    negs = [lit < 0 for cl in f.clauses for lit in cl]
    frac = np.mean(negs)
    assert 0.45 < frac < 0.55  # 1200 fair coins


# ---------------------------------------------------------------- baseline


def test_schoening_solves_easy_instances():
    rng = np.random.default_rng(0)
    a = schoening_solve(TWO_SAT_UNIQUE, rng)
    assert a == (True, False)
    f = random_instance(8, 1.0, 3, np.random.default_rng(5))
    if is_satisfiable(f):
        a = schoening_solve(f, np.random.default_rng(1))
        assert a is not None
        assert evaluate(f, a)


def test_schoening_gives_up_on_unsat():
    assert schoening_solve(TWO_SAT_UNSAT, np.random.default_rng(0), max_restarts=5) is None
