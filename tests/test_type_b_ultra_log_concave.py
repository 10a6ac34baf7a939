"""h_B is ultra-log-concave for every n: the steps of a proof, each checked.

Write b_k for the coefficients of h_B, m = n - k and
R_k = (2n+1)!! / ((2k-1)!! (2m+1)!!), with (-1)!! = 1.  The paper's
ratio formula (coordinator.type_b_coefficient_ratios) is
b_k = C(n, k) r_k with r_k = R_k - 2k.  h_B is ultra-log-concave when
r_0..r_n is positive and log-concave (Newton's inequalities), and then
b_k is log-concave too, as a termwise product with C(n, k).

For 1 <= k <= n - 1:
1. (2j+1)!! = (2j+1) (2j-1)!! gives R_{k-1} = R_k (2k-1)/(2m+3) and
   R_{k+1} = R_k (2m+1)/(2k+1).  So Q_k = r_k^2 - r_{k-1} r_{k+1} is
   4(n+1) R^2 / D + L R + 4, where R = R_k, D = (2m+3)(2k+1) and
   L = 2(k+1)(2k-1)/(2m+3) + 2(k-1)(2m+1)/(2k+1) - 4k >= -4k.
   Hence Q_k >= 4 whenever (n+1) R_k >= k D.
2. R_k = R_{n+1-k}, and R_{k+1}/R_k = (2m+1)/(2k+1) falls as k grows,
   so R is log-concave and unimodal.  So R_k >= R_3 on 3 <= k <= n - 2,
   and R_k >= R_1 = 2n + 1 > 2k on 1 <= k <= n, so every r_k > 0.
3. On k <= n - 2, 2k (2m+3) <= ((2n+3)/2)^2 by AM-GM, and
   2k + 1 <= 2n - 3, so k D <= (2n+3)^2 (2n-3) / 8.
4. Then (n+1) R_k >= k D follows, on each of four ranges of k, from a
   polynomial inequality in n.  Shifted to n = N0 + t, each polynomial
   has nonnegative coefficients, so it holds for every n >= N0.
5. Every n below the largest N0 is checked exactly.

Only ints and Fractions are used.
"""
from fractions import Fraction
from itertools import product
from math import comb, prod

from coordlat.coordinator import LatticeType, coordinator, type_b_coefficient_ratios


def _df(j: int) -> int:
    return prod(range(j, 0, -2))


def _R(n: int, k: int) -> Fraction:
    return Fraction(_df(2 * n + 1), _df(2 * k - 1) * _df(2 * n - 2 * k + 1))


def _holds_on_grid(f, g, degrees) -> bool:
    """f == g at every point of range(d + 1) per variable.

    When f - g is, after clearing a denominator that is nonzero on the
    grid, a polynomial of degree at most d in each variable, this proves
    f = g everywhere.
    """
    return all(f(*x) == g(*x) for x in product(*(range(d + 1) for d in degrees)))


def _q_direct(n, k, R):
    """r_k^2 - r_{k-1} r_{k+1} from step 1's ratios, as a function of R = R_k."""
    m = n - k
    r_lo = R * Fraction(2 * k - 1, 2 * m + 3) - 2 * (k - 1)
    r_hi = R * Fraction(2 * m + 1, 2 * k + 1) - 2 * (k + 1)
    return (R - 2 * k) ** 2 - r_lo * r_hi


def _q_identity(n, k, R):
    m = n - k
    lead = Fraction(4 * (n + 1), (2 * m + 3) * (2 * k + 1))
    linear = (
        Fraction(2 * (k + 1) * (2 * k - 1), 2 * m + 3)
        + Fraction(2 * (k - 1) * (2 * m + 1), 2 * k + 1)
        - 4 * k
    )
    return lead * R * R + linear * R + 4


def test_q_identity_holds_for_all_n_k_and_r():
    # times D = (2m+3)(2k+1), odd and so nonzero at integer n, k, both
    # sides are polynomials of degree <= 2 in n, <= 4 in k, <= 2 in R
    assert _holds_on_grid(_q_direct, _q_identity, (2, 4, 2))


def test_q_identity_gives_the_packages_type_b_ratios():
    for n in range(1, 41):
        r = type_b_coefficient_ratios(n)
        for k in range(n + 1):
            assert r[k] == _R(n, k) - 2 * k, (n, k)
        for k in range(1, n):
            R = _R(n, k)
            assert _R(n, k - 1) == R * Fraction(2 * k - 1, 2 * (n - k) + 3)
            assert _R(n, k + 1) == R * Fraction(2 * (n - k) + 1, 2 * k + 1)
            assert r[k] ** 2 - r[k - 1] * r[k + 1] == _q_identity(n, k, R), (n, k)


def test_r_is_symmetric_and_log_concave_for_every_n():
    # symmetry: k -> n + 1 - k swaps the two double factorials below the line
    assert _holds_on_grid(lambda n, k: 2 * (n + 1 - k) - 1, lambda n, k: 2 * n - 2 * k + 1, (1, 1))
    assert _holds_on_grid(lambda n, k: 2 * n - 2 * (n + 1 - k) + 1, lambda n, k: 2 * k - 1, (1, 1))
    # log-concavity: (2m+1)/(2k+1) > (2m-1)/(2k+3), the next ratio, since
    # their cross difference is 4(n+1)
    assert _holds_on_grid(
        lambda n, k: (2 * (n - k) + 1) * (2 * k + 3) - (2 * (n - k) - 1) * (2 * k + 1),
        lambda n, k: 4 * (n + 1),
        (1, 2),
    )
    for n in range(1, 61):
        R = [_R(n, k) for k in range(n + 2)]
        assert R == R[::-1], n
        assert all(R[k] ** 2 > R[k - 1] * R[k + 1] for k in range(1, n + 1)), n
        assert R[1] == 2 * n + 1
        assert all(R[k] >= R[1] for k in range(1, n + 1))
        assert all(R[k] >= R[3] for k in range(3, n - 1))


def test_k_d_is_bounded_on_k_up_to_n_minus_2():
    # AM-GM in exact form: ((2n+3)/2)^2 - 2k (2m+3) is a square
    assert _holds_on_grid(
        lambda n, k: (2 * n + 3) ** 2 - 8 * k * (2 * (n - k) + 3),
        lambda n, k: (4 * k - 2 * n - 3) ** 2,
        (2, 2),
    )
    for n in range(3, 61):
        for k in range(1, n - 1):
            assert 8 * k * (2 * (n - k) + 3) * (2 * k + 1) <= (2 * n + 3) ** 2 * (2 * n - 3)


def _mul(*ps: list[int]) -> list[int]:
    out = [1]
    for p in ps:
        q = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                q[i + j] += a * b
        out = q
    return out


def _add(p: list[int], q: list[int]) -> list[int]:
    size = max(len(p), len(q))
    return [a + b for a, b in zip(p + [0] * (size - len(p)), q + [0] * (size - len(q)))]


def _sub(p: list[int], q: list[int]) -> list[int]:
    return _add(p, [-b for b in q])


def _shift(p: list[int], a: int) -> list[int]:
    """Coefficients of p(a + t), by Horner in t."""
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out = _add(_mul(out, [a, 1]), [c])
    return out


def _at(p: list[int], n: int) -> int:
    return sum(c * n**i for i, c in enumerate(p))


# polynomials in n, lowest degree first
N_PLUS_1, TWO_N_PLUS_1, TWO_N_MINUS_1, TWO_N_MINUS_3 = [1, 1], [1, 2], [-1, 2], [-3, 2]

# per range of k: N0, the range at rank n, a multiplier c, c R_k at the
# range's first k, c times an upper bound on k D over the range, and
# (n+1) c R - c bound at n = N0 + t
CERTIFICATE = {
    "k = 1": (2, lambda n: range(1, 2), 1, TWO_N_PLUS_1, _mul([3], TWO_N_PLUS_1), [0, 5, 2]),
    "k = 2": (
        4, lambda n: range(2, 3), 3, _mul(TWO_N_PLUS_1, TWO_N_MINUS_1), _mul([30], TWO_N_MINUS_1),
        [105, 163, 52, 4],
    ),
    "k = n - 1": (
        4, lambda n: range(n - 1, n), 3, _mul(TWO_N_PLUS_1, TWO_N_MINUS_1),
        _mul([15], [-1, 1], TWO_N_MINUS_1), [0, 28, 22, 4],
    ),
    "3 <= k <= n - 2": (
        5, lambda n: range(3, n - 1), 120, _mul([8], TWO_N_PLUS_1, TWO_N_MINUS_1, TWO_N_MINUS_3),
        _mul([15], [3, 2], [3, 2], TWO_N_MINUS_3), [15519, 17958, 7028, 1128, 64],
    ),
}
# every rank below the largest N0 is checked exactly, with margin
FINITE = 12


def test_shifted_polynomials_have_nonnegative_coefficients():
    for case, (n0, _, _, c_r, c_bound, shifted) in CERTIFICATE.items():
        assert all(x >= 0 for x in shifted), case
        assert _shift(_sub(_mul(N_PLUS_1, c_r), c_bound), n0) == shifted, case


def test_certificate_terms_are_r_at_the_range_start_and_a_bound_on_k_d():
    for case, (n0, ks, c, c_r, c_bound, _) in CERTIFICATE.items():
        for n in range(n0, 61):
            assert _at(c_r, n) == c * _R(n, ks(n)[0]), (case, n)
            for k in ks(n):
                assert _R(n, k) >= _R(n, ks(n)[0]), (case, n, k)
                assert c * k * (2 * (n - k) + 3) * (2 * k + 1) <= _at(c_bound, n), (case, n, k)


def test_the_ranges_cover_every_k_past_the_finite_check():
    assert max(n0 for n0, *_ in CERTIFICATE.values()) <= FINITE + 1
    # from n = 5 on the four ranges keep their shape, so 60 stands for every n
    for n in range(FINITE + 1, 61):
        covered = sorted(k for n0, ks, *_ in CERTIFICATE.values() if n >= n0 for k in ks(n))
        assert covered == list(range(1, n)), n


def test_small_ranks_are_ultra_log_concave_exactly():
    for n in range(1, FINITE + 1):
        b = coordinator(LatticeType("B", n)).poly.coeffs
        r = [Fraction(c) / comb(n, k) for k, c in enumerate(b)]
        assert all(x > 0 for x in r), n
        assert all(r[k] ** 2 > r[k - 1] * r[k + 1] for k in range(1, n)), n


def test_the_sufficient_condition_fails_only_at_b3_k2():
    failures = [
        (n, k)
        for n in range(2, 121)
        for k in range(1, n)
        if (n + 1) * _R(n, k) < k * (2 * (n - k) + 3) * (2 * k + 1)
    ]
    assert failures == [(3, 2)]
