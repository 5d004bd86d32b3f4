"""Classical k-SAT core: formulas, DIMACS I/O, brute-force oracle and random
instance generation.

Boolean convention used throughout the package: a variable that is *true*
is bit ``1``, in bitstrings as in basis indices (``assignment_bits``), and
reads out as z = +1 on the quantum side; *false* is bit ``0`` (z = -1). A
bitstring is thus its basis index in binary, variable 1 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Assignment = tuple[bool, ...]


class SatError(ValueError):
    """Raised for malformed formulas or DIMACS input."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula with uniform clause width k over ``num_vars`` variables.

    A clause is a tuple of signed DIMACS integers: ``v`` for x_v and ``-v``
    for its negation, variables 1-based.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise SatError("formula needs at least one variable")
        if len(self.clauses) < 1:
            raise SatError("formula needs at least one clause")
        k = len(self.clauses[0])
        for i, clause in enumerate(self.clauses):
            if len(clause) != k:
                raise SatError(f"clause {i + 1} has width {len(clause)}, expected {k}")
            if len(clause) == 0:
                raise SatError(f"clause {i + 1} is empty")
            for lit in clause:
                if type(lit) is not int or not 1 <= abs(lit) <= self.num_vars:
                    raise SatError(
                        f"clause {i + 1} has literal {lit!r}, not a nonzero int"
                        f" within +-{self.num_vars}"
                    )
            if len({abs(lit) for lit in clause}) < k:
                raise SatError(f"clause {i + 1} repeats a variable: {clause}")

    @property
    def k(self) -> int:
        return len(self.clauses[0])

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class SolutionSet:
    """All satisfying assignments of a formula, from the brute-force oracle."""

    assignments: tuple[Assignment, ...]

    @property
    def count(self) -> int:
        return len(self.assignments)


def formula(num_vars: int, *clauses_: Iterable[int]) -> CnfFormula:
    return CnfFormula(num_vars, tuple(tuple(c) for c in clauses_))


def to_bitstring(assignment: Sequence[bool]) -> str:
    """Render an assignment as a bitstring with true -> '1', false -> '0'."""
    return "".join("1" if b else "0" for b in assignment)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF. Clauses are terminated by 0 and may span lines."""
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"malformed DIMACS header: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise SatError(f"malformed DIMACS header: {line!r}") from exc
            continue
        if num_vars is None:
            raise SatError("DIMACS clause before 'p cnf' header")
        for tok in line.split():
            v = int(tok)
            if v == 0:
                if not pending:
                    raise SatError("zero-width clause in DIMACS input")
                clauses.append(tuple(pending))
                pending.clear()
            else:
                pending.append(v)
    if pending:
        raise SatError("unterminated clause at end of DIMACS input")
    if num_vars is None or num_clauses is None:
        raise SatError("missing 'p cnf' header")
    if len(clauses) != num_clauses:
        raise SatError(f"declared {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def write_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for cl in f.clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(f: CnfFormula, assignment: Sequence[bool]) -> bool:
    """True iff every clause has at least one satisfied literal."""
    if len(assignment) != f.num_vars:
        raise SatError(
            f"assignment has {len(assignment)} bits, formula has {f.num_vars} variables"
        )
    for cl in f.clauses:
        if not any(assignment[abs(lit) - 1] == (lit > 0) for lit in cl):
            return False
    return True


_ENUM_CAP = 24


def assignment_bits(index, n: int) -> np.ndarray:
    """The n bits of an assignment or basis index (an int or an integer
    array), as a 0/1 array of shape index.shape + (n,), variable and qubit 1
    first: column j-1 is bit n-j, the tensor-factor order of ``qlinalg``.
    Variable j is true iff its bit is 1, so index 0 is the all-false
    assignment. The oracle and the readout turn indices into bits here; the
    success probability indexes the (2,)*n basis tensor by the bits.
    """
    shifts = np.arange(n - 1, -1, -1)
    return (np.asarray(index, dtype=np.int64)[..., None] >> shifts) & 1


def _satisfied_mask(f: CnfFormula, table: np.ndarray) -> np.ndarray:
    ok = np.ones(table.shape[0], dtype=bool)
    for cl in f.clauses:
        lits = np.array(cl)
        ok &= (table[:, abs(lits) - 1] == (lits > 0)).any(axis=1)
    return ok


def _solution_chunks(f: CnfFormula):
    """Bit tables of the satisfying assignments, one per chunk of up to
    2^16 assignments in ascending order; refuses n > _ENUM_CAP."""
    n = f.num_vars
    if n > _ENUM_CAP:
        raise SatError(f"refusing brute force for n={n} > {_ENUM_CAP}")
    chunk = 1 << min(n, 16)
    for offset in range(0, 1 << n, chunk):
        table = assignment_bits(np.arange(offset, offset + chunk), n)
        yield table[_satisfied_mask(f, table)]


def enumerate_solutions(f: CnfFormula) -> SolutionSet:
    """Brute-force oracle over all 2^n assignments (guarded by _ENUM_CAP)."""
    return SolutionSet(tuple(
        tuple(bool(b) for b in row)
        for sols in _solution_chunks(f)
        for row in sols
    ))


def is_satisfiable(f: CnfFormula) -> bool:
    """Whether any assignment satisfies f; stops at the first chunk with one."""
    return any(sols.size for sols in _solution_chunks(f))


# The bound on |alpha| n that num_clauses_for allows. It lies far above any
# instance a run can use (a step costs 2^n per clause, and the largest
# committed input has m = 43, at n = 10 and alpha = 4.3) and refuses a huge
# finite alpha before random_instance loops over its clauses.
MAX_CLAUSES = 10**5


def num_clauses_for(n: int, alpha: float) -> int:
    """m = round(alpha * n), rounding half up; a non-finite alpha, or one with
    |alpha| n above MAX_CLAUSES, is refused."""
    if not math.isfinite(alpha):
        raise SatError(f"clause density alpha must be finite, got {alpha}")
    if abs(alpha) * n > MAX_CLAUSES:
        raise SatError(f"clause density alpha={alpha} gives |alpha| n = {abs(alpha) * n:.3g}"
                       f" for n={n}, above the {MAX_CLAUSES} clauses allowed")
    return int(math.floor(alpha * n + 0.5))


def random_instance(
    n: int, alpha: float, k: int, rng: np.random.Generator
) -> CnfFormula:
    """Uniform random k-SAT: k distinct variables per clause, signs fair coins.

    Duplicate clauses are allowed; duplicate variables within a clause are not.
    """
    if k > n:
        raise SatError(f"clause width k={k} exceeds n={n}")
    m = num_clauses_for(n, alpha)
    if m < 1:
        raise SatError(f"alpha={alpha} gives zero clauses for n={n}")
    clauses = []
    for _ in range(m):
        variables = rng.choice(n, size=k, replace=False) + 1
        clauses.append(tuple(np.where(rng.random(k) < 0.5, -variables, variables).tolist()))
    return CnfFormula(n, tuple(clauses))


_UNIQUE_ATTEMPTS = 10**6


def random_unique_solution_instance(
    n: int, alpha: float, k: int, rng: np.random.Generator
) -> CnfFormula:
    """Rejection-sample random instances until exactly one solution exists.

    Refused up front when the clauses cannot leave exactly one solution: each
    excludes 2^(n-k) of the 2^n assignments, so m 2^(n-k) >= 2^n - 1 is needed.
    """
    m = num_clauses_for(n, alpha)
    if k <= n and m << (n - k) < (1 << n) - 1:
        raise SatError(
            f"no unique-solution instance exists: {m} clauses of width {k} exclude"
            f" at most {m << (n - k)} of the {1 << n} assignments of {n} variables"
        )
    for _ in range(_UNIQUE_ATTEMPTS):
        f = random_instance(n, alpha, k, rng)
        if enumerate_solutions(f).count == 1:
            return f
    raise SatError(f"no unique-solution instance found in {_UNIQUE_ATTEMPTS} attempts")


# Worked 2-qubit 2-SAT problems used across tests and docs: the
# unique-solution triple, the two-solution pair, and the unsatisfiable quad.
TWO_SAT_UNIQUE = formula(2, (1, 2), (1, -2), (-1, -2))
TWO_SAT_TWO_SOLUTIONS = formula(2, (1, 2), (-1, -2))
TWO_SAT_UNSAT = formula(2, (1, 2), (1, -2), (-1, -2), (-1, 2))
