"""Bernoulli numbers two ways: exact rationals and residues mod p^r.

The exact side follows the defining recurrence of x/(e^x - 1), capped at
index 400; it exists as an oracle.  The residue side reads p B_n mod p^c
off the half sums S_m = sum(k^m, k <= (p-1)/2), which the prime's plan
serves (``plan``: off its moment window or by one direct pass over half
the range).  It evaluates the power-sum expansion at x = (p+1)/2: for
even n, B_n((p+1)/2) - B_n = n S_(n-1), and B_r(1/2) = (2^(1-r) - 1) B_r, so

    (2^(1-n) - 2) p B_n = n p S_(n-1)
        - sum(C(n, j) (2^(1-n+j) - 1) 2^(-j) p^j p B_(n-j),
              j even, 2 <= j <= min(n, C-1))   (mod p^C),

the half identity, exact at any C: every p B_r is p-integral (von
Staudt-Clausen), so the omitted terms carry p^j, j >= C, and nothing is
divided by j.  The odd j drop out (B_1(1/2) = 0), p B_0 = p, and S_(n-1)
is needed mod p^(C-1) only.  The coefficient of p B_n is
-2^(1-n) (2^n - 1), which carries exactly p^d, d = v_p(2^n - 1); so the
identity mod p^C, C = c + d, divided by p^d, gives p B_n mod p^c.  d = 0,
and C = c, in every class the checks read once p >= 11; d >= 1 where
2^n = 1 (mod p) (a public read at ord_p(2) | n, p-1 | n among them, or a
plan at p = 7).  Every p B_r is read alike, at irregular positions too,
and a read at C reads p B_(n-2) at C - 2 and p B_(n-4) at C - 4.

Any index below p^6 is read directly; indices p^n - p^(n-1) - s also
reduce to indices below n*p through the Kummer congruences:

    B_m/m = B_n/n (mod p^r)   when  n = m (mod phi(p^r)), m != 0 (mod p-1),

and the vanishing r-th finite difference  sum((-1)^k C(r,k)
B_{m+k(p-1)}/(m+k(p-1)), k=0..r) = 0 (mod p^r), which combine into

    B_{p^n-p^(n-1)-s}/(p^n-p^(n-1)-s)
        = sum((-1)^(k+1) C(n,k) B_{k(p-1)-s}/(k(p-1)-s), k=1..n) (mod p^n),

which ``high_index_ratio`` evaluates and the registry's eq26 rows state.

One helper holds the identity's arithmetic (``_half_identity``): the term
n p S_(n-1), the sum over the children p B_(n-j), and the division by
2^(1-n) - 2.  One loop (``_evaluate``) visits the tree, over nodes
(j, e, s, c), children first, memoising each p B_n in the plan, with the
leaves inline, p B_0 = p and -[p-1 | n] at C = 1.  A check suite's reads
are compiled once per suite into node lists (``_half_nodes``), each run
once per prime (``_evaluate_lists``); a read the memo does not hold, a
lone ``bernoulli_mod`` among them, is one node, j = ceil(n/(p-1)) at e = 0,
whose chain the loop evaluates first.  A node whose 2^n = 1 (mod p) is
lifted in place, its chain first too, as its children are read at C - i.
As 2^n = 2^-s (mod p) and the registry's nodes have s in {-4, -2, 2, 4, 6},
a registry node lifts only where p divides 3*5*7.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import (
    DivisionNotExact, ExponentOutOfRange, IndexTooLarge, IrregularPosition,
    ModulusMismatch, NotPrime, OddIndex, RangeError,
)
# Bound, uncalled, for the benchmark's layer tracer (perfbench/tracer.py).
from .harmonic import power_sum_raw  # noqa: F401
from .modring import MAX_EXPONENT, Residue, capped_valuation, int_valuation, is_prime, make_modulus
from .plan import EvaluationPlan

#: Exact rationals stop here; everything larger goes through residues.
EXACT_INDEX_CAP = 400

#: Residue exponent cap.  The half identity is exact at any exponent; 4 fixes
#: the evaluation exponent W of every Bernoulli row (``checks.Linear``), and
#: so the bytes of its records.
RESIDUE_EXPONENT_CAP = 4

_exact: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


class BernoulliExact(NamedTuple):
    index: int
    value: Fraction


class BernoulliResidue(NamedTuple):
    """B_index mod p^r; only regular positions (index != 0 mod p-1) exist."""

    index: int
    p: int
    r: int
    value: Residue
    regular: bool


def bernoulli_exact(m: int) -> BernoulliExact:
    """B_m as an exact rational, via sum(C(m+1, j) B_j, j=0..m) = 0."""
    if not 0 <= m <= EXACT_INDEX_CAP:
        raise IndexTooLarge(f"index {m} outside 0..{EXACT_INDEX_CAP}")
    while len(_exact) <= m:
        j = len(_exact)
        if j % 2 and j >= 3:
            _exact.append(Fraction(0))
            continue
        acc = Fraction(0)
        for i in range(j):
            if _exact[i]:
                acc += comb(j + 1, i) * _exact[i]
        _exact.append(-acc / (j + 1))
    return BernoulliExact(index=m, value=_exact[m])


def is_regular_position(n: int, p: int) -> bool:
    """True when B_n has p-free denominator (n odd, or n != 0 mod p-1)."""
    return n % 2 == 1 or n % (p - 1) != 0 or n == 0


def _half_identity(n: int, p: int, c: int, C: int, h: int, S: int, kids) -> int:
    """p B_n mod p^c off the half identity mod p^C (module doc), C = c + d:
    ``h`` is 2^(1-n) mod p^C, ``S`` is S_(n-1) mod p^(C-1), and ``kids`` are
    p B_(n-j) mod p^(C-j) for j = 2, 4, .. up to min(n, C-1).  The sum is
    divided by p^d exactly; one that is not divisible raises DivisionNotExact."""
    M = p ** C
    i2 = (M + 1) // 2
    i4, t, pj = i2 * i2 % M, 1, 1
    # p B_(n-j) is needed mod p^(C-j) only: its term carries p^j.
    acc = n * p * S
    for j, pb in zip(range(2, C, 2), kids):
        t, pj = t * i4 % M, pj * p * p  # 2^-j, p^j
        acc -= comb(n, j) * (h - t) * pj * pb
    if C == c:  # d = 0: nothing to divide out
        return acc * pow(h - 2, -1, M) % M
    q = p ** (C - c)
    if acc % q:
        raise DivisionNotExact(
            f"p*B_{n}'s half identity mod {p}^{C} is not divisible by {p}^{C - c}")
    m = p ** c
    return acc // q * pow((h - 2) // q, -1, m) % m


def _half_nodes(reads, held: dict) -> tuple:
    """The nodes (j, e, s, C) for ``_evaluate`` that the reads (j, e, s, c)
    of p B_n mod p^c, n = j p^e (p-1) - s, need, children first.  A
    read's tree is (j, e, s + i, c - i) for even i >= 0 down to C = 2, as a
    node's children are (j, e, s + i, C - i), even i in 2..C-1; so each
    (j, e, s) is one node, at the largest C a read asks of it.  Leaves
    (C = 1 or n = i), odd n and nodes ``held`` at >= C, here or in another
    list, are left out."""
    need = {}
    for j, e, s, c in reads:
        for i in range(0, c - 1, 2) if s % 2 == 0 else ():
            need[j, e, s + i] = max(c - i, need.get((j, e, s + i), 0))
    nodes = []
    for j, e, s in sorted(need, key=lambda key: (key[0], key[1], -key[2])):
        if held.get((j, e, s), 0) < (C := need[j, e, s]):
            held[j, e, s] = C
            nodes.append((j, e, s, C))
    return tuple(nodes)


def _evaluate(nodes, plan: EvaluationPlan) -> None:
    """Evaluate the nodes (j, e, s, c) in order into ``plan.pb``: p B_n mod p^c,
    n = j p^e (p-1) - s, off the half identity mod p^C, C = c + v_p(2^n - 1),
    divided by p^(C-c) (DivisionNotExact where it does not divide).  Nodes held
    at >= c, odd or below n = 2 (p = 5) are skipped.  The children p B_(n-i)
    are read off the plan at C - i, the leaves inline: p B_0 = p, and
    -[p-1 | k] at C - i = 1.  A node whose first child is not held at >= C - 2
    (a lone read, a lifted node) evaluates that child's node first, and so its
    chain.  2^(1-n) is 2^(1+s) t_e^j off the plan's table of 2 (C <= 10) where
    the plan was told of node reads, else one direct power: a lone read builds
    no table."""
    p, pb, half_sum = plan.p, plan.pb, plan.half_sum
    two = plan.two if plan.requests or plan.wolstenholme_requests else ()
    for j, e, s, c in nodes:
        n = j * p ** e * (p - 1) - s
        if n < 2 or n % 2 or (held := pb.get(n)) is not None and held[0] >= c:
            continue
        C = d = 0
        while C < c + d:
            # h - 2 = -2^(1-n) (2^n - 1) carries p^d, read capped at C, so
            # exactly once C >= c + d.
            C = c + d
            M = p ** C
            h = (pow(2, 1 + s, M) * pow(two[e], j, M) % M if two and C <= MAX_EXPONENT
                 else pow((M + 1) // 2, (n - 1) % (M // p * (p - 1)), M))
            d = capped_valuation(h - 2, p, C) if (h - 2) % p == 0 else 0
        if C > 3 and n > 2 and pb.get(n - 2, (0,))[0] < C - 2:
            _evaluate(((j, e, s + 2, C - 2),), plan)
        kids = []
        for i in range(2, min(n, C - 1) + 1, 2):
            k = n - i
            kids.append(p if k == 0 else pb[k][1] if C - i > 1 else -(k % (p - 1) == 0) % p)
        pb[n] = c, _half_identity(n, p, c, C, h, half_sum(n - 1, C - 1), kids)


def _evaluate_lists(lists, plan: EvaluationPlan, gated: bool) -> None:
    """Run a suite's node lists (``checks._Suite``) at p: the first, and for a
    Wolstenholme-only row (``gated``) the second, each once (``plan.listed``
    counts those run).  A node that raises ends both lists; the reads they
    miss are then evaluated one by one, so only the rows reaching it fail."""
    try:
        for listed in range(plan.listed, 2 if gated else 1):
            _evaluate(lists[listed], plan)
            plan.listed = listed + 1
    except Exception:  # the reading rows' own reads raise it again
        plan.listed = len(lists)


def _p_times_bernoulli_reads(reads, plan: EvaluationPlan) -> list:
    """(n, c, p B_n mod p^c) for each read (j, e, s, c), n = j p^e (p-1) - s:
    off ``plan.pb`` where it holds it, else evaluated as a node first; the
    leaves p B_0 = p and p B_n = 0 at odd n are held nowhere."""
    p, pb = plan.p, plan.pb
    got = []
    for j, e, s, c in reads:
        held = pb.get(n := j * p ** e * (p - 1) - s)
        if held is None or held[0] < c:
            _evaluate(((j, e, s, c),), plan)
            held = pb.get(n) or (c, 0 if n % 2 else p)
        got.append((n, c, held[1] % p ** c))
    return got


def _residue_plan(n: int, p: int, r: int, plan) -> EvaluationPlan:
    """Check the arguments; the caller's plan for p (p known prime) or a
    new one, which sweeps nothing, so each half sum is a direct pass."""
    if p < 7 or plan is None and not is_prime(p):
        raise NotPrime(f"p must be a prime >= 7, got {p}")
    if plan is not None and plan.p != p:
        raise ModulusMismatch(f"a plan for {plan.p} cannot serve p = {p}")
    if not 1 <= r <= RESIDUE_EXPONENT_CAP:
        raise ExponentOutOfRange(f"exponent r must be in 1..{RESIDUE_EXPONENT_CAP}")
    if n < 0 or n >= p ** 6:
        raise IndexTooLarge(f"index {n} outside 0..p^6")
    return plan or EvaluationPlan(p)


def bernoulli_mod(n: int, p: int, r: int, plan=None) -> BernoulliResidue:
    """B_n mod p^r through p B_n mod p^(r+1) and exact division by p.

    B_0 = 1 and the odd n >= 3 (B_n = 0) read no sum; B_1 is refused, and
    so are positions with p-1 | n, where B_n has p in its denominator.
    ``plan`` is p's evaluation plan, whose power sums and p B_n memo the
    call then shares.
    """
    plan = _residue_plan(n, p, r, plan)
    if n == 1:
        raise RangeError("B_1 is not served by the residue path; use the oracle")
    if not is_regular_position(n, p):
        raise IrregularPosition(f"p-1 = {p - 1} divides index {n}")
    j = -(-n // (p - 1))
    (_, _, lifted), = _p_times_bernoulli_reads(((j, 0, j * (p - 1) - n, r + 1),), plan)
    if lifted % p:
        raise DivisionNotExact(
            f"p*B_{n} mod {p}^{r + 1} is not divisible by {p}"
        )
    return BernoulliResidue(n, p, r, plan.modulus(r).residue(lifted // p), True)


def bernoulli_ratio(n: int, p: int, r: int, plan=None) -> Residue:
    """B_n/n mod p^r for even regular n (p | n allowed; the ratio is integral)."""
    plan = _residue_plan(n, p, r, plan)
    if n < 2 or n % 2:
        raise OddIndex("ratio defined for even n >= 2")
    if not is_regular_position(n, p):
        raise IrregularPosition(f"p-1 = {p - 1} divides index {n}")
    v = int_valuation(n, p)
    if r + v > RESIDUE_EXPONENT_CAP:
        raise IndexTooLarge(
            f"B_{n}/{n} mod p^{r} needs exponent {r + v} > {RESIDUE_EXPONENT_CAP}"
        )
    b = bernoulli_mod(n, p, r + v, plan).value.value
    if b % p ** v:
        raise DivisionNotExact(f"B_{n} not divisible by {p}^{v}")
    return plan.modulus(r).residue(b // p ** v * pow(n // p ** v, -1, p ** r))


def reduce_high_index(n: int, s: int, p: int) -> list[tuple[int, int]]:
    """Expansion of B_{p^n-p^(n-1)-s}/(p^n-p^(n-1)-s) modulo p^n.

    Returns [(coefficient, index)] with coefficient (-1)^(k+1) C(n, k) and
    index k(p-1) - s for k = 1..n.  Every index must come out even, >= 2,
    and coprime to p: the congruence genuinely fails when p divides an
    index (at p = 7, s = 4, n = 3 the index 14 appears and the exact
    residual only reaches valuation 1), so such shapes are refused.  All
    indices are coprime whenever n + s < p.
    """
    if n < 1:
        raise ExponentOutOfRange("n must be >= 1")
    if s % 2 or s < 2:
        raise OddIndex(f"offset s = {s} must be even and >= 2")
    if s % (p - 1) == 0:
        raise IrregularPosition(f"p-1 = {p - 1} divides offset {s}")
    pairs = []
    for k in range(1, n + 1):
        idx = k * (p - 1) - s
        if idx < 2:
            raise RangeError(f"index {idx} below 2 at k = {k}; p too small for s = {s}")
        if idx % p == 0:
            raise RangeError(
                f"index {idx} at k = {k} is divisible by p = {p};"
                " the expansion does not hold there")
        pairs.append(((-1) ** (k + 1) * comb(n, k), idx))
    return pairs


def high_index_ratio(n: int, s: int, p: int, plan=None) -> Residue:
    """B_M/M mod p^n for M = p^n - p^(n-1) - s, via the low-index expansion."""
    if not 1 <= n <= RESIDUE_EXPONENT_CAP:
        raise ExponentOutOfRange(f"exponent n must be in 1..{RESIDUE_EXPONENT_CAP}")
    acc = (make_modulus(p, n) if plan is None else plan.modulus(n)).residue(0)
    plan = plan or EvaluationPlan(p)
    for coeff, idx in reduce_high_index(n, s, p):
        acc = acc + coeff * bernoulli_ratio(idx, p, n, plan)
    return acc


def high_index_bernoulli(n: int, s: int, p: int, plan=None) -> Residue:
    """B_M mod p^n for M = p^n - p^(n-1) - s (M is coprime to p)."""
    big = p ** n - p ** (n - 1) - s
    return high_index_ratio(n, s, p, plan) * big
