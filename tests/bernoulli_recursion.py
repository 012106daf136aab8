"""The recursion over the half identity, kept as the tests' reference for
``bernoulli``'s node loop: it visits the tree depth first, memoises each
node in a dict of its own, and never reads or writes a plan's ``pb``, so it
cannot read a value the loop wrote.  It shares only the identity's
arithmetic (``_half_identity``) and the plan's half sums."""
from wolstenholme.bernoulli import _half_identity
from wolstenholme.modring import capped_valuation


def p_times_bernoulli(n: int, plan, c: int, pb: dict) -> int:
    """p * B_n mod p^c for every n >= 0 but 1, memoised in ``pb``.

    Off the half identity (``bernoulli``'s module doc) mod p^C,
    C = c + v_p(2^n - 1), read off the plan's half sums and divided by
    p^(C-c); a sum that is not divisible raises DivisionNotExact.  At c = 1
    no sum is read: von Staudt-Clausen gives p*B_n = -[p-1 | n] (mod p) for
    even n >= 2.
    """
    p = plan.p
    m = p ** c
    if n == 0:
        return p % m
    if n % 2:
        return 0
    if c == 1:
        return -(n % (p - 1) == 0) % p
    held = pb.get(n)
    if held is not None and held[0] >= c:
        return held[1] % m
    C = c
    while True:
        # 2^(1-n) as (2^-1)^((n-1) mod phi(p^C)); h - 2 = -2^(1-n) (2^n - 1)
        # carries p^d, read capped at C, so exactly once C >= c + d.
        M = p ** C
        h = pow((M + 1) // 2, (n - 1) % (M // p * (p - 1)), M)
        d = capped_valuation(h - 2, p, C)
        if C >= c + d:
            break
        C = c + d
    S = plan.half_sum(n - 1, C - 1)
    kids = [p_times_bernoulli(n - j, plan, C - j, pb) for j in range(2, min(n, C - 1) + 1, 2)]
    pb[n] = c, _half_identity(n, p, c, C, h, S, kids)
    return pb[n][1]
