import functools
import json
import math
from collections import Counter

import numpy as np
import pytest

import degdet.solver as solver
from degdet import (DEFAULT_PRIME, IntegerInstance, SolveOptions, bound_log2,
                    first_primes, gen_integer, is_minus_infinity, prime_budget,
                    solve, solve_R, solve_rational, solve_rational_report)
from degdet.cli import main
from degdet.errors import (DimensionMismatchError, IterationBoundExceededError,
                           NcRankGapError, PrecisionUnsupportedError, RetryExhaustedError)
from degdet.field_linalg import is_prime
from degdet.instances import load

P = DEFAULT_PRIME


def exact_L(n, D):
    d = max(1, n - 1)
    return (n * d) ** (2 * n * d) * D ** (n * d)


def exact_ceil_log2_L(n, D):
    L = exact_L(n, D)
    bits = L.bit_length()
    return bits - 1 if L == 1 << (bits - 1) else bits


def test_bound_log2_small_cases():
    assert bound_log2(1, 1) <= 2  # L = 1
    assert bound_log2(2, 1) >= 2
    got = bound_log2(3, 2)
    assert exact_ceil_log2_L(3, 2) == 38  # big-integer check of the derived value
    assert 38 <= got <= 40


def test_bound_log2_dominates_exact_value():
    for n in range(1, 5):
        for D in range(1, 5):
            exact = exact_ceil_log2_L(n, D)
            got = bound_log2(n, D)
            assert exact <= got <= exact + 2


def test_bound_log2_guarantees_strict_product():
    # the whole point: the product of the first ell primes must exceed L
    for n in range(1, 4):
        for D in range(1, 4):
            d = max(1, n - 1)
            L = (n * d) ** (2 * n * d) * D ** (n * d)
            primes = first_primes(max(1, bound_log2(n, D)))
            prod = 1
            for q in primes:
                prod *= q
            assert prod > L


def test_first_primes_examples():
    assert first_primes(1) == [2]
    assert first_primes(5) == [2, 3, 5, 7, 11]
    ps = first_primes(38)
    assert len(ps) == 38 and ps[-1] == 163


def test_first_primes_are_prime_and_increasing():
    ps = first_primes(60)
    assert ps == sorted(ps)
    for q in ps:
        assert all(q % d for d in range(2, int(math.isqrt(q)) + 1))


def test_first_primes_rejects_zero():
    with pytest.raises(DimensionMismatchError):
        first_primes(0)


def test_solve_rational_scalar_needs_the_max():
    # the budget is (2**31 - 1, 2147483629): the entry vanishes modulo the
    # first prime and the second recovers the value
    inst = IntegerInstance(1, 1, (np.array([[2**31 - 1]], dtype=object),), (5,), {})
    report = solve_rational_report(inst)
    assert report.budget.primes == (2**31 - 1, 2147483629)
    assert report.value == 5
    per_prime = {o.prime: o.value for o in report.outcomes}
    assert is_minus_infinity(per_prime[2**31 - 1])
    assert per_prime[2147483629] == 5


def test_solve_rational_identity_every_odd_prime():
    inst = IntegerInstance(2, 1, (np.eye(2, dtype=int).astype(object),), (7,), {})
    report = solve_rational_report(inst)
    assert report.value == 14
    for out in report.outcomes:
        if out.prime == 2:
            continue
        assert out.value == 14  # identity reduces faithfully mod every odd prime


def test_solve_rational_matches_direct_big_prime():
    rng = np.random.default_rng(1)
    for trial in range(6):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_integer(n, m, seed=trial, entry_bound=2, cost_range=(-60, 60))
        rational = solve_rational(inst, SolveOptions(seed=trial))
        direct = solve(inst.reduce_mod(P), SolveOptions(seed=trial + 1000)).value
        assert rational == direct


def test_per_prime_values_lower_bound_direct():
    inst = gen_integer(3, 3, seed=9, entry_bound=3, cost_range=(-30, 30))
    direct = solve(inst.reduce_mod(P), SolveOptions(seed=7)).value
    report = solve_rational_report(inst, SolveOptions(seed=7))
    for out in report.outcomes:
        if out.skipped:
            continue
        assert out.value <= direct
    assert report.value == direct


def test_prime_budget_shape():
    budget = prime_budget(3, 2)
    assert budget.d == 2
    assert budget.ell >= exact_ceil_log2_L(3, 2)
    assert math.prod(budget.primes) > exact_L(3, 2)


def test_result_is_order_free_over_primes():
    # max over per-prime values cannot depend on prime order; check by
    # recomputing the max from the reported outcomes in reversed order
    inst = gen_integer(2, 2, seed=17, entry_bound=2, cost_range=(-20, 20))
    report = solve_rational_report(inst, SolveOptions(seed=3))
    values = [o.value for o in report.outcomes if not o.skipped]
    best = values[0]
    for v in reversed(values):
        if v > best:
            best = v
    assert best == report.value


def test_all_primes_failed(monkeypatch):
    import degdet.rational as rational
    from degdet.errors import AllPrimesFailedError, PrecisionUnsupportedError

    inst = gen_integer(2, 2, seed=5, entry_bound=2, cost_range=(1, 5))

    def always_fails(reduced, opts):
        raise PrecisionUnsupportedError("forced for the error path")

    monkeypatch.setattr(rational, "solve", always_fails)
    with pytest.raises(AllPrimesFailedError):
        rational.solve_rational(inst)


def _skip_where(monkeypatch, fails, error=PrecisionUnsupportedError):
    """Patch the per-prime solve to raise `error` on every prime for which fails(index, p)."""
    import degdet.rational as rational

    real, calls = rational.solve, []

    def patched(reduced, opts):
        calls.append(reduced.p)
        if fails(len(calls) - 1, reduced.p):
            raise error("forced skip")
        return real(reduced, opts)

    monkeypatch.setattr(rational, "solve", patched)
    return calls


def test_a_skipped_prime_is_replaced_below_the_budget(monkeypatch):
    inst = gen_integer(4, 2, seed=3, entry_bound=2, cost_range=(-20, 20))
    budget = prime_budget(inst.n, inst.entry_bound)
    assert len(budget.primes) == 4
    expected = solve_rational(inst, SolveOptions(seed=1))
    _skip_where(monkeypatch, lambda idx, p: p == budget.primes[0])
    report = solve_rational_report(inst, SolveOptions(seed=1))
    solved = [o.prime for o in report.outcomes if not o.skipped]
    assert [o.prime for o in report.outcomes if o.skipped] == [budget.primes[0]]
    assert math.prod(solved) >= 2**budget.ell
    assert solved[:3] == list(budget.primes[1:])
    assert all(is_prime(q) and q < budget.primes[-1] for q in solved[3:])
    assert report.value == expected


def test_a_prime_whose_solve_finds_no_certificate_is_skipped(monkeypatch):
    # NcRankGapError is the sampling error solve raises (over a tiny field every
    # point can fall short); on the budget's first prime it is skipped and replaced
    inst = gen_integer(4, 2, seed=3, entry_bound=2, cost_range=(-20, 20))
    budget = prime_budget(inst.n, inst.entry_bound)
    expected = solve_rational(inst, SolveOptions(seed=1))
    _skip_where(monkeypatch, lambda idx, p: p == budget.primes[0], NcRankGapError)
    report = solve_rational_report(inst, SolveOptions(seed=1))
    skipped = [o for o in report.outcomes if o.skipped]
    assert [o.prime for o in skipped] == [budget.primes[0]]
    assert skipped[0].value is None and skipped[0].reason == "NcRankGapError: forced skip"
    solved = [o.prime for o in report.outcomes if not o.skipped]
    assert solved[:3] == list(budget.primes[1:]) and solved[3] < budget.primes[-1]
    assert math.prod(solved) >= 2**budget.ell
    assert report.value == expected


def test_miller_rabin_runs_once_per_distinct_prime(monkeypatch):
    # every Miller-Rabin run starts with the witness 2, pow(2, d, n); the primes of
    # the walk are remembered, so reducing modulo them tests none again
    import degdet.field_linalg as field_linalg

    runs = Counter()

    def counted(a, d, n):
        runs[n] += a == 2
        return pow(a, d, n)

    monkeypatch.setattr(field_linalg, "pow", counted, raising=False)
    monkeypatch.setattr(field_linalg, "_PROVEN", {})
    reports = [solve_rational_report(gen_integer(5, 6, s, 10, (-10**6, 10**6)))
               for s in (7, 1)]
    primes = {o.prime for report in reports for o in report.outcomes}
    assert primes == set(prime_budget(5, 10).primes)
    assert all(runs[p] == 1 for p in primes)
    assert max(runs.values()) == 1


def test_remembered_primes_are_bounded_and_never_composite(monkeypatch):
    import degdet.field_linalg as field_linalg

    monkeypatch.setattr(field_linalg, "_PROVEN", {})
    primes = first_primes(1100)
    assert all(is_prime(q) for q in primes) and not any(is_prime(q * q) for q in primes)
    # trial division answers the primes up to 37, so only the Miller-Rabin ones
    # are remembered, the last 1024 of them, oldest first
    assert list(field_linalg._PROVEN) == primes[-1024:]
    for other in (float(primes[-1]), np.int64(primes[-1])):  # still refused, as by pow
        with pytest.raises(TypeError):
            is_prime(other)


@pytest.mark.parametrize("fails", [lambda idx, p: idx % 2 == 0, lambda idx, p: idx > 0],
                         ids=["every-other-prime", "all-but-the-first"])
def test_as_many_skips_as_the_budget_holds_raise(monkeypatch, fails):
    from degdet.errors import AllPrimesFailedError

    inst = gen_integer(4, 2, seed=3, entry_bound=2, cost_range=(-20, 20))
    budget = prime_budget(inst.n, inst.entry_bound)
    calls = _skip_where(monkeypatch, fails)
    with pytest.raises(AllPrimesFailedError):
        solve_rational_report(inst)
    assert sum(fails(idx, p) for idx, p in enumerate(calls)) == len(budget.primes)


@pytest.mark.parametrize("n, D", [(n, D) for n in range(1, 5) for D in range(1, 5)]
                         + [(5, 10), (8, 1000)])
def test_prime_budget_word_size_primes(n, D):
    primes = prime_budget(n, D).primes
    assert list(primes) == sorted(set(primes), reverse=True)
    assert all(is_prime(q) and q < 2**31 for q in primes)
    assert math.prod(primes) > exact_L(n, D)


def test_prime_budget_n5_D10_holds_eight_primes():
    # the rational-1e6 shape: 8 word-size solves where the first-primes
    # budget held 241 primes up to 1523
    primes = prime_budget(5, 10).primes
    assert len(primes) == 8
    assert (primes[0], primes[-1]) == (2**31 - 1, 2147483497)


def test_word_size_budget_agrees_with_first_primes_and_direct_solve():
    # criterion 10's corpus: the word-size budget, the first-primes budget and
    # the direct big-prime solve all give the same value
    rng = np.random.default_rng(1010)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        inst = gen_integer(n, m, seed=trial + 11000, entry_bound=3,
                           cost_range=(-100, 100))
        rational = solve_rational(inst, SolveOptions(seed=trial))
        direct = solve(inst.reduce_mod(P), SolveOptions(seed=trial + 500)).value
        assert rational == direct == first_primes_value(inst, trial), trial


def solve_R_rounds(pencil, seed, rounds):
    """solve_R given `rounds` tries of its 3n samples, on seeds seed, seed + 1, ..."""
    for extra in range(rounds - 1):
        try:
            return solve_R(pencil, seed + extra)
        except NcRankGapError:
            continue
    return solve_R(pencil, seed + rounds - 1)


def first_primes_value(inst, seed):
    """The first-primes choice: max over the first bound_log2 primes.  As the
    pipeline does, a prime whose solve raises is skipped; tiny fields get
    ceil(32 / q) times solve_R's 3n samples per oracle call."""
    values = []
    with pytest.MonkeyPatch.context() as mp:
        for q in first_primes(bound_log2(inst.n, inst.entry_bound)):
            mp.setattr(solver, "solve_R", functools.partial(
                solve_R_rounds, rounds=max(1, -(-32 // q))))
            try:
                values.append(solve(inst.reduce_mod(q), SolveOptions(seed=seed)).value)
            except (PrecisionUnsupportedError, RetryExhaustedError,
                    IterationBoundExceededError):
                continue
    return max(values)


def test_cli_solve_lists_the_word_size_primes(capsys, tmp_path):
    path = tmp_path / "inst.json"
    assert main(["gen", "dense", "--n", "3", "--m", "2", "--seed", "5", "--integer",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    inst = load(path.read_bytes())
    primes = list(prime_budget(inst.n, inst.entry_bound).primes)
    assert doc["primes"] == primes and primes[0] == 2**31 - 1
    assert [entry["prime"] for entry in doc["per_prime"]] == primes
