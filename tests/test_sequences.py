from hypothesis import given, settings
from hypothesis import strategies as st

from rslogic.automata import minimize, to_digits
from rslogic.sequences import (
    alternating_sum_by_recurrence,
    alternating_sums,
    double_zero_alternating_sum_by_recurrence,
    double_zero_partial_sum_by_recurrence,
    double_zero_sign,
    double_zero_sign_dfao4,
    pair_count,
    partial_sum_by_recurrence,
    partial_sums,
    pseudo_square,
    rudin_shapiro,
    rudin_shapiro_dfao4,
    running_sums,
)

from builders import is_padding_closed, rudin_shapiro_dfao2, value_of_word

# published reference values for the two partial sums, n = 0..20
SUM_TABLE = [1, 2, 3, 2, 3, 4, 3, 4, 5, 6, 7, 6, 5, 4, 5, 4, 5, 6, 7, 6, 7]
ALT_TABLE = [1, 0, 1, 2, 3, 2, 1, 0, 1, 0, 1, 2, 1, 2, 3, 4, 5, 4, 5, 6, 7]

# published reference values for the 0-pair variants, n = 0..15
DZ_SIGN_TABLE = [1, 1, 1, 1, -1, 1, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1]
DZ_SUM_TABLE = [1, 2, 3, 4, 3, 4, 5, 6, 7, 6, 7, 8, 7, 8, 9, 10]
DZ_ALT_TABLE = [1, 0, 1, 0, -1, -2, -1, -2, -1, 0, 1, 0, -1, -2, -1, -2]


def test_term_values():
    assert [rudin_shapiro(n) for n in range(12)] == [1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, -1]
    assert pair_count(0b11011) == 2
    assert pair_count(0b111) == 2  # overlapping pairs both count
    assert pair_count(0b10101) == 0


def test_partial_sum_tables():
    assert partial_sums(21) == SUM_TABLE
    assert alternating_sums(21) == ALT_TABLE


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), max_size=40), st.booleans())
def test_running_sums_match_direct_sums(signs, alternating):
    weight = [(-1) ** i if alternating else 1 for i in range(len(signs))]
    direct = [sum(weight[i] * signs[i] for i in range(n + 1)) for n in range(len(signs))]
    assert list(running_sums(signs.__getitem__, len(signs), alternating)) == direct


def test_recurrence_route_agrees_with_direct_sums():
    sums = partial_sums(2 ** 15 + 8)
    alts = alternating_sums(2 ** 15 + 8)
    for n in [*range(3000), 2 ** 15, 2 ** 15 + 7, 3 ** 9]:
        assert partial_sum_by_recurrence(n) == sums[n]
        assert alternating_sum_by_recurrence(n) == alts[n]


def test_pseudo_square_values():
    assert [pseudo_square(n) for n in range(9)] == [0, 1, 4, 5, 16, 17, 20, 21, 64]
    # within a constant factor of true squaring, tight at n = 1 and n = 3
    for n in range(5000):
        m = pseudo_square(n)
        assert n * n + 2 * n <= 3 * m
        assert m <= n * n
    assert 3 * pseudo_square(3) == 3 * 3 + 2 * 3


def test_double_zero_tables():
    assert [double_zero_sign(n) for n in range(16)] == DZ_SIGN_TABLE
    assert list(running_sums(double_zero_sign, 16)) == DZ_SUM_TABLE
    assert list(running_sums(double_zero_sign, 16, alternating=True)) == DZ_ALT_TABLE


def double_zero_sign_by_bits(n):
    """The definition read off the bit string: count the adjacent 0-pairs."""
    if n == 0:
        return 1
    bits = bin(n)[2:]
    pairs = sum(1 for i in range(len(bits) - 1) if bits[i] == bits[i + 1] == "0")
    return -1 if pairs & 1 else 1


def test_double_zero_sign_matches_its_bit_string_definition():
    for n in range(2 ** 16):
        assert double_zero_sign(n) == double_zero_sign_by_bits(n), n


def test_double_zero_alternating_sum_stays_at_most_one():
    # the alternating 0-pair sum never exceeds 1, and hits 1 exactly at 0
    # and at the numbers written 1010...10 in binary
    alts = list(running_sums(double_zero_sign, 2 ** 16, alternating=True))
    over = [n for n, v in enumerate(alts) if v > 0]
    assert over == [0, 2, 10, 42, 170, 682, 2730, 10922, 43690]
    assert all(n == 0 or bin(n)[2:] == "10" * (len(bin(n)[2:]) // 2) for n in over)
    assert max(alts) == 1


def test_double_zero_halving_recurrences():
    sums = list(running_sums(double_zero_sign, 2 ** 13))
    alts = list(running_sums(double_zero_sign, 2 ** 13, alternating=True))
    # empty-sum convention: the partial sum at -1 is 0
    sp = lambda n: 0 if n < 0 else sums[n]
    for n in range(2 ** 12):
        if n >= 1:
            assert sums[2 * n] == sp(n - 1) - alts[n] + 2
        assert sums[2 * n + 1] == sums[n] - alts[n] + 2
        assert alts[2 * n] == -alts[n] - sp(n - 1) + 2
        assert alts[2 * n + 1] == -alts[n] - sums[n] + 2


def test_double_zero_recurrence_route_agrees_with_running_sums():
    sums = list(running_sums(double_zero_sign, 2 ** 10))
    alts = list(running_sums(double_zero_sign, 2 ** 10, alternating=True))
    # the documented empty sum: the partial sum before 0 is 0
    assert double_zero_partial_sum_by_recurrence(-1) == 0
    assert [double_zero_partial_sum_by_recurrence(n) for n in range(2 ** 10)] == sums
    assert [double_zero_alternating_sum_by_recurrence(n) for n in range(2 ** 10)] == alts


def test_double_zero_quartering_recurrences():
    # the correction term riding along is the threaded sign itself
    sums = list(running_sums(double_zero_sign, 2 ** 14))
    for n in range(2 ** 12):
        r = double_zero_sign(n)
        sign = -1 if n % 2 else 1
        if n >= 1:
            assert sums[4 * n] == 2 * sums[n] - (2 - sign) * r + 2
        assert sums[4 * n + 1] == 2 * sums[n] - 2 * r + 2
        assert sums[4 * n + 2] == 2 * sums[n] - r + 2
        assert sums[4 * n + 3] == 2 * sums[n] + 2


def test_double_zero_sign_halving_recurrence():
    for n in range(1, 4096):
        assert double_zero_sign(2 * n) == (-1) ** (n + 1) * double_zero_sign(n)
    for n in range(4096):
        assert double_zero_sign(2 * n + 1) == double_zero_sign(n)


def test_double_zero_block_extremes():
    sums = list(running_sums(double_zero_sign, 4 ** 6))
    for k in range(1, 5):
        lo, hi = 4 ** k, 4 ** (k + 1)
        window = sums[lo:hi]
        assert min(window) == 2 ** (k + 1) - 1
        assert [lo + i for i, v in enumerate(window) if v == min(window)] == [(4 ** (k + 1) - 4) // 3]
        assert max(window) == 3 * 2 ** (k + 1) - 2
        assert [lo + i for i, v in enumerate(window) if v == max(window)] == [hi - 1]


def test_double_zero_square_root_bounds():
    sums = list(running_sums(double_zero_sign, 2 ** 14))
    alts = list(running_sums(double_zero_sign, 2 ** 14, alternating=True))
    for n in range(1, 2 ** 14):
        sp = sums[n]
        assert 9 * n <= 4 * sp * sp
        assert 7 * sp * sp <= 75 * n
        tp = alts[n]
        assert tp >= 0 or 7 * tp * tp <= 24 * n


def test_base2_output_automaton():
    dfao = rudin_shapiro_dfao2()
    for n in range(4096):
        assert value_of_word(dfao, to_digits(n, 2)) == rudin_shapiro(n)
    assert minimize(dfao).n_states == 4


def test_base4_output_automaton():
    dfao = rudin_shapiro_dfao4()
    for n in range(4 ** 7):
        assert value_of_word(dfao, to_digits(n, 4)) == rudin_shapiro(n)
    # leading zero digits never change the value
    for n in range(500):
        word = [0, 0] + to_digits(n, 4)
        assert value_of_word(dfao, word) == rudin_shapiro(n)


def test_base4_double_zero_automaton():
    dfao = double_zero_sign_dfao4()
    for n in range(4 ** 7):
        assert value_of_word(dfao, to_digits(n, 4)) == double_zero_sign(n)
    for n in range(500):
        word = [0, 0, 0] + to_digits(n, 4)
        assert value_of_word(dfao, word) == double_zero_sign(n)


def test_output_automata_recognizers_are_padding_closed():
    for dfao in (rudin_shapiro_dfao2(), rudin_shapiro_dfao4(), double_zero_sign_dfao4()):
        assert is_padding_closed(dfao)
        for v in (1, -1):
            assert is_padding_closed(dfao.where(v))
