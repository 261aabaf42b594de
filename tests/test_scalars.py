"""Field backends, parameters, sequences, and binomial analogues."""

import hashlib
import math
import operator
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucascalc import (
    Backend,
    BackendMismatch,
    DivisionByZeroFactor,
    GaussianRational,
    IndexOutOfRange,
    RootsUnavailable,
    TruncatedSeries,
    VanishingFactor,
    ZeroParameter,
    backend_of,
    binet,
    binom2,
    lucas_u,
    lucas_v,
    lucasnomial,
    lucasnomial_row,
    lucastorial,
    magnitude,
    make_params,
    params_from_roots,
    promote,
    promote_params,
)
from lucascalc.scalars import (
    backend_one,
    backend_zero,
    common_backend,
    exact_column,
    exact_triple,
    gaussian_integer_power,
    gaussian_sqrt,
    rational_sqrt,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, fractions, fractions)


# the multiple of 2^-53 * (|{n+1}| + |t {n-1}|) a float companion term may miss by
COMPANION_ROUNDINGS = 256


def recurrence_oracle(s, t, n, seeds=(0, 1)):
    a, b = seeds
    out = [a, b]
    for _ in range(n):
        a, b = b, s * b + t * a
        out.append(b)
    return out[: n + 1]


class TestGaussianRational:
    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GaussianRational(0) == a
        assert a * GaussianRational(1) == a
        assert a + (-a) == GaussianRational(0)

    @given(gaussians, gaussians)
    @settings(max_examples=60, deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        if b != GaussianRational(0):
            assert (a * b) / b == a

    @given(gaussians)
    @settings(max_examples=30, deadline=None)
    def test_square_roots_round_trip(self, a):
        root = gaussian_sqrt(a * a)
        assert root is not None
        assert root * root == a * a

    def test_float_operands_rejected(self):
        g = GaussianRational(1, 2)
        with pytest.raises(TypeError):
            g + 0.5
        with pytest.raises(TypeError):
            g * 1.5j

    def test_pow(self):
        g = GaussianRational(0, 1)
        assert g**2 == GaussianRational(-1)
        assert g**-1 == GaussianRational(0, -1)
        assert GaussianRational(0) ** 0 == GaussianRational(1)


class TestBackends:
    def test_backend_of(self):
        assert backend_of(F(1, 2)) is Backend.RATIONAL
        assert backend_of(3) is Backend.RATIONAL
        assert backend_of(GaussianRational(1)) is Backend.GAUSSIAN
        assert backend_of(0.5) is Backend.COMPLEX
        assert backend_of(1j) is Backend.COMPLEX

    def test_backend_of_bool_and_subclasses(self):
        # not in the exact-type table: the isinstance chain decides
        class Count(int):
            pass

        class Ratio(F):
            pass

        class Gaussian(GaussianRational):
            pass

        class Real(float):
            pass

        assert backend_of(True) is Backend.RATIONAL
        assert backend_of(Count(3)) is Backend.RATIONAL
        assert backend_of(Ratio(1, 3)) is Backend.RATIONAL
        assert backend_of(Gaussian(1, F(-1, 2))) is Backend.GAUSSIAN
        assert backend_of(Real(0.5)) is Backend.COMPLEX

    @pytest.mark.parametrize("value, name", [("1", "str"), (None, "NoneType"), ([1], "list")])
    def test_backend_of_unsupported_type(self, value, name):
        with pytest.raises(TypeError, match=f"^unsupported scalar type: {name}$"):
            backend_of(value)
        with pytest.raises(TypeError, match=f"^unsupported scalar type: {name}$"):
            common_backend(1.0, 2.0, value)

    def test_common_backend_messages(self):
        assert common_backend(F(1), 2, True) is Backend.RATIONAL
        assert common_backend(0.5, 1j) is Backend.COMPLEX
        cases = [
            ((F(1), 1.0), "['complex-float', 'rational']"),
            ((1.0, 1.0, GaussianRational(1)), "['complex-float', 'gaussian-rational']"),
            ((GaussianRational(1), 1, 1.0), "['complex-float', 'gaussian-rational', 'rational']"),
            ((), "[]"),
        ]
        for values, names in cases:
            with pytest.raises(BackendMismatch) as err:
                common_backend(*values)
            assert str(err.value) == f"mixed scalar backends: {names}"

    def test_backend_constants(self):
        for backend, zero, one in (
            (Backend.RATIONAL, F(0), F(1)),
            (Backend.GAUSSIAN, GaussianRational(0), GaussianRational(1)),
            (Backend.COMPLEX, 0.0, 1.0),
        ):
            assert type(backend_zero(backend)) is type(zero) and backend_zero(backend) == zero
            assert type(backend_one(backend)) is type(one) and backend_one(backend) == one

    def test_series_point_from_another_backend(self):
        with pytest.raises(BackendMismatch, match="point backend differs"):
            TruncatedSeries([1.0, 2.0]).eval_at(F(1, 2))
        with pytest.raises(BackendMismatch, match="point backend differs"):
            TruncatedSeries([F(1), F(2)]).eval_at(GaussianRational(1))

    def test_mixed_backend_params_rejected(self):
        with pytest.raises(BackendMismatch):
            make_params(F(1), 1.0)

    def test_promotion_is_upward_only(self):
        assert promote(F(1, 2), Backend.COMPLEX) == 0.5
        assert promote(F(1, 2), Backend.GAUSSIAN) == GaussianRational(F(1, 2))
        with pytest.raises(BackendMismatch):
            promote(0.5, Backend.RATIONAL)

    def test_rational_sqrt(self):
        assert rational_sqrt(F(9, 4)) == F(3, 2)
        assert rational_sqrt(F(2)) is None
        assert rational_sqrt(F(-1)) is None

    def test_gaussian_sqrt_negative_and_imaginary(self):
        assert gaussian_sqrt(GaussianRational(-4)) == GaussianRational(0, 2)
        assert gaussian_sqrt(GaussianRational(0, 2)) == GaussianRational(1, 1)
        assert gaussian_sqrt(GaussianRational(1, 1)) is None


class TestParams:
    def test_float_golden_roots(self):
        p = make_params(1.0, 1.0)
        assert p.phi == pytest.approx(1.6180339887498949)
        assert p.phi_prime == pytest.approx(-0.6180339887498949)

    def test_exact_square_discriminant(self):
        p = make_params(F(3), F(-2))
        assert (p.phi, p.phi_prime, p.disc) == (F(2), F(1), F(1))

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroParameter):
            make_params(F(0), F(1))
        with pytest.raises(ZeroParameter):
            make_params(1.0, 0.0)

    def test_non_square_discriminant_has_no_roots(self):
        p = make_params(F(1), F(1))  # disc = 5
        assert not p.roots_available
        with pytest.raises(RootsUnavailable):
            p.require_roots()

    def test_from_roots(self):
        p = params_from_roots(F(2), F(-1))
        assert (p.s, p.t) == (F(1), F(2))
        q = params_from_roots(F(2), F(1))
        assert (q.s, q.t) == (F(3), F(-2))
        with pytest.raises(ZeroParameter):
            params_from_roots(F(1), F(-1))

    def test_root_relations_hold(self):
        p = params_from_roots(F(5, 3), F(-2, 7))
        assert p.phi + p.phi_prime == p.s
        assert p.phi * p.phi_prime == -p.t

    def test_the_cache_is_left_out_of_equality_hash_and_repr(self):
        p, q = make_params(F(3), F(-2)), make_params(F(3), F(-2))
        assert p.cache is not q.cache and p.cache.u(5) == 31
        assert p == q and p != make_params(F(3), F(-1))
        assert hash(p) == hash(q) == hash((p.s, p.t, p.disc, p.phi, p.phi_prime, p.backend))
        assert repr(p) == (
            "LucasParams(s=Fraction(3, 1), t=Fraction(-2, 1), disc=Fraction(1, 1), phi=Fraction(2, 1), "
            "phi_prime=Fraction(1, 1), backend=<Backend.RATIONAL: 'rational'>)"
        )

    def test_promote_params_keeps_roots(self):
        p = params_from_roots(F(2), F(-1))
        q = promote_params(p, Backend.GAUSSIAN)
        assert q.phi == GaussianRational(2)
        r = promote_params(p, Backend.COMPLEX)
        assert r.phi == 2.0

    def test_promote_params_to_the_same_backend_is_the_identity(self):
        for p in (make_params(F(1), F(1)), make_params(GaussianRational(1, 2), GaussianRational(3)), make_params(1.0, 1.0)):
            assert promote_params(p, p.backend) is p

    def test_promote_params_without_exact_roots_rebuilds_from_s_and_t(self):
        p = make_params(F(1), F(1))  # roots (1 ± sqrt 5)/2 are not rational
        assert not p.roots_available
        q = promote_params(p, Backend.COMPLEX)
        assert (q.backend, q.s, q.t) == (Backend.COMPLEX, 1.0, 1.0)
        assert q.phi == pytest.approx((1 + 5**0.5) / 2, rel=1e-15)

    def test_promote_gaussian_params_to_floats(self):
        q = promote_params(make_params(GaussianRational(3, 2), GaussianRational(F(1, 2))), Backend.COMPLEX)
        assert q.backend is Backend.COMPLEX
        assert (q.s, q.t) == (complex(3, 2), 0.5)
        assert type(q.t) is float  # a real Gaussian becomes a float, not a complex


class TestSequences:
    def test_fibonacci(self):
        p = make_params(F(1), F(1))
        assert lucas_u(10, p) == 55

    def test_u2_is_s(self):
        for s, t in ((F(7), F(3)), (F(-2), F(5))):
            assert lucas_u(2, make_params(s, t)) == s

    def test_pell(self):
        p = make_params(F(2), F(1))
        assert lucas_u(6, p) == 70

    def test_companion_values(self):
        p = make_params(F(1), F(1))
        assert lucas_v(5, p) == 11
        assert lucas_v(0, p) == 2
        assert lucas_v(4, make_params(F(2), F(1))) == 34

    def test_recurrence_against_oracle(self):
        for s, t in ((F(1), F(1)), (F(2), F(1)), (F(1), F(2)), (F(3), F(-2))):
            p = make_params(s, t)
            expect_u = recurrence_oracle(s, t, 25)
            expect_v = recurrence_oracle(s, t, 25, seeds=(2, s))
            assert [lucas_u(n, p) for n in range(26)] == expect_u
            assert [lucas_v(n, p) for n in range(26)] == expect_v

    @pytest.mark.parametrize("s, t", [(1, 1), (2, 1), (1, 2), (3, -2), (-2, -5), (1, -1)])
    def test_exact_companion_of_integer_members(self, s, t):
        # <n> = {n+1} + t {n-1} is exact on both exact backends: the Lucas
        # numbers and their kin, as Fractions or GaussianRationals
        expect = recurrence_oracle(s, t, 120, seeds=(2, s))
        for params, kind in (
            (make_params(F(s), F(t)), F),
            (make_params(GaussianRational(s), GaussianRational(t)), GaussianRational),
        ):
            got = [lucas_v(n, params) for n in range(121)]
            assert got == expect
            assert all(type(v) is kind for v in got)
        p = make_params(GaussianRational(1, F(1, 2)), GaussianRational(F(-2, 3), 1))
        assert [lucas_v(n, p) for n in range(40)] == recurrence_oracle(p.s, p.t, 39, seeds=(2, p.s))

    def test_float_companion_against_the_exact_recurrence(self):
        """Each float <n> = {n+1} + t {n-1}, for 200 seeded (s, t) in [-3, 3]^2
        and n = 1..57, against the exact Fraction recurrence with seeds 2, s of
        the same dyadic s and t.  The float {n+1} and {n-1} carry the
        recurrence's error, which grows with n and, for complex roots, is
        relative to the terms' envelope rather than to |{n}|: over seeds
        0-4,999 the largest multiple of 2^-53 (|{n+1}| + |t {n-1}|) seen was
        93.7, and the bound keeps a margin of about three.  The largest relative
        error is also no larger than the float recurrence <n> = s <n-1> +
        t <n-2> gives (1.58e-12 for both over these seeds).
        """
        worst = worst_recurrence = 0
        for seed in range(200):
            rng = random.Random(seed)
            s, t = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            p = make_params(s, t)
            u = recurrence_oracle(F(s), F(t), 58)
            v = recurrence_oracle(F(s), F(t), 57, seeds=(2, F(s)))
            recurrence = recurrence_oracle(s, t, 57, seeds=(2.0, s))
            for n in range(1, 58):
                error = float(abs(F(lucas_v(n, p)) - v[n]))
                assert error <= COMPANION_ROUNDINGS * 2.0**-53 * (abs(float(u[n + 1])) + abs(t * float(u[n - 1])))
                if v[n]:
                    worst = max(worst, error / abs(float(v[n])))
                    worst_recurrence = max(worst_recurrence, float(abs(F(recurrence[n]) - v[n])) / abs(float(v[n])))
        assert worst <= worst_recurrence

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            lucas_u(-1, make_params(F(1), F(1)))

    @pytest.mark.parametrize(
        "s, t",
        [(F(1), F(1)), (0.75, 1.25), (GaussianRational(1, F(1, 2)), GaussianRational(F(-2, 3), 1))],
        ids=["rational", "float", "gaussian"],
    )
    def test_concurrent_cache_extension(self, s, t):
        # every backend grows its sequences, factorials and rows in one loop under one lock;
        # threads racing on one cache must all read what a lone caller reads
        def reads(p, rows_first):
            def rows():
                return [lucasnomial_row(n, p) for n in range(0, 120, 10)]

            def terms():
                return [[f(n, p) for n in range(120)] for f in (lucas_u, lucastorial, lucas_v)]

            if rows_first:
                return rows(), terms()
            seq = terms()
            return rows(), seq

        expect = reads(make_params(s, t), True)
        p = make_params(s, t)
        barrier = threading.Barrier(8)
        results = []

        def worker(i):
            barrier.wait()
            results.append(reads(p, i % 2 == 0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expect] * 8


class TestBinet:
    def test_matches_recurrence_for_floats(self):
        p = make_params(1.0, 1.0)
        for n in range(31):
            expected = lucas_u(n, p)
            assert binet(n, p) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_degenerate_exact(self):
        p = make_params(F(2), F(-1))  # disc = 0, repeated root 1
        assert binet(7, p) == 7
        assert binet(0, p) == 0

    def test_degenerate_float_threshold(self):
        p = make_params(2.0, -1.0 + 1e-16)
        assert binet(5, p) == pytest.approx(5.0, rel=1e-10)

    def test_random_float_params_match_recurrence(self):
        rng = random.Random(3)
        for _ in range(20):
            s = rng.uniform(0.5, 3.0)
            t = rng.uniform(0.2, 2.0)
            p = make_params(s, t)
            for n in range(31):
                expected = lucas_u(n, p)
                assert abs(binet(n, p) - expected) <= 1e-12 * max(1.0, abs(expected))


class TestLucastorial:
    def test_fibonacci_factorial(self):
        p = make_params(F(1), F(1))
        assert lucastorial(5, p) == 30
        assert lucastorial(0, p) == 1

    def test_vanishing_factor(self):
        p = make_params(F(1), F(-1))  # {3} = s^2 + t = 0
        with pytest.raises(VanishingFactor) as err:
            lucastorial(3, p)
        assert err.value.index == 3
        assert lucastorial(2, p) == 1


class TestLucasnomial:
    def test_examples(self):
        p = make_params(F(1), F(1))
        assert lucasnomial(4, 2, p) == 6
        assert lucasnomial(7, 0, p) == 1
        assert lucasnomial(5, 2, make_params(F(2), F(1))) == 174

    def test_bad_indices(self):
        p = make_params(F(1), F(1))
        with pytest.raises(IndexOutOfRange):
            lucasnomial(3, 4, p)
        with pytest.raises(IndexOutOfRange):
            lucasnomial(3, -1, p)

    def test_denominator_zero(self):
        p = make_params(F(1), F(-1))
        with pytest.raises(DivisionByZeroFactor):
            lucasnomial(7, 3, p)

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(10):
            s = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
            t = F(rng.randint(1, 9), rng.randint(1, 9))
            p = make_params(s, t)
            for n in range(13):
                for k in range(n + 1):
                    assert lucasnomial(n, k, p) == lucasnomial(n, n - k, p)

    def test_matches_factorial_quotient(self):
        p = make_params(F(2), F(3))
        for n in range(10):
            for k in range(n + 1):
                quotient = lucastorial(n, p) / (lucastorial(k, p) * lucastorial(n - k, p))
                assert lucasnomial(n, k, p) == quotient


class TestLucasnomialRow:
    POINTS = {
        "rational": (F(3, 2), F(-2, 5)),
        "gaussian": (GaussianRational(1, F(1, 2)), GaussianRational(F(-2, 3), 1)),
        "float": (0.75, 1.25),
    }

    @pytest.mark.parametrize("backend", sorted(POINTS))
    def test_row_matches_entries(self, backend):
        p = make_params(*self.POINTS[backend])
        for n in range(31):
            row = lucasnomial_row(n, p)
            entries = [lucasnomial(n, k, p) for k in range(n + 1)]
            # an entry is the row's product stopped at k, floats included
            assert row == entries
            assert all(backend_of(c) is backend_of(e) for c, e in zip(row, entries))

    # sha256 over repr() of the float rows n <= 30 of six real members and one
    # complex member, frozen before the rows moved into SeqCache's kernel
    FLOAT_ROWS_SHA256 = "08ced388d87c42ca36d2edbafd3253ca162ccb12317d5d1852b688f0408dd969"

    def test_float_rows_match_golden_digest(self):
        rng = random.Random(83)
        members = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
        parts = [rng.uniform(-2, 2) for _ in range(4)]
        members.append((complex(*parts[:2]), complex(*parts[2:])))
        digest = hashlib.sha256()
        for s, t in members:
            p = make_params(s, t)
            for n in range(31):
                digest.update(f"{n}:{lucasnomial_row(n, p)!r};".encode())
        assert digest.hexdigest() == self.FLOAT_ROWS_SHA256

    @staticmethod
    def _quotient_row(s, t, n):
        """{n}! / ({k}! {n-k}!) from an independent recurrence, k = 0..n."""
        fact = [s / s]
        for term in recurrence_oracle(s, t, n)[1:]:
            fact.append(fact[-1] * term)
        return [fact[n] / (fact[k] * fact[n - k]) for k in range(n + 1)]

    def test_gaussian_row_is_factorial_quotient(self):
        s, t = self.POINTS["gaussian"]
        p = make_params(s, t)
        for n in range(31):
            assert lucasnomial_row(n, p) == self._quotient_row(s, t, n)

    def test_float_row_near_exact_quotient(self):
        # the float inputs are dyadic, so the exact row at the same point is the reference
        s, t = self.POINTS["float"]
        p = make_params(s, t)
        for n in range(31):
            exact = self._quotient_row(F(s), F(t), n)
            assert lucasnomial_row(n, p) == pytest.approx([float(c) for c in exact], rel=1e-12)

    def test_same_error_as_entries(self):
        p = make_params(F(1), F(-1))  # {3} = 0
        assert lucasnomial_row(2, p) == [1, 1, 1]
        for n in (3, 4, 7):
            with pytest.raises(DivisionByZeroFactor) as row_err:
                lucasnomial_row(n, p)
            with pytest.raises(DivisionByZeroFactor) as entry_err:
                lucasnomial(n, 3, p)
            assert str(row_err.value) == str(entry_err.value) == "{3} = 0 in the denominator"

    @pytest.mark.parametrize("one", [1.0, GaussianRational(1)], ids=["float", "gaussian"])
    def test_same_error_on_field_backends(self, one):
        p = make_params(one, -one)  # {3} = s^2 + t = 0 exactly
        assert lucasnomial_row(2, p) == [one, one, one]
        for n in (3, 4, 7):
            assert lucasnomial(n, 2, p) == lucas_u(n, p) * lucas_u(n - 1, p)
            with pytest.raises(DivisionByZeroFactor, match=r"^\{3\} = 0 in the denominator$"):
                lucasnomial_row(n, p)
            for k in range(3, n + 1):
                with pytest.raises(DivisionByZeroFactor, match=r"^\{3\} = 0 in the denominator$"):
                    lucasnomial(n, k, p)

    @pytest.mark.parametrize("backend", sorted(POINTS))
    def test_only_the_rationals_form_denominators(self, backend):
        # the fields have c = 1 and their readers drop the denominators; over
        # the rationals, with c = lcm(2, 5) = 10, denominator j is c^(j(n-j))
        p = make_params(*self.POINTS[backend])
        for n in range(13):
            for k in range(n + 1):
                nums, dens = p.cache.lucasnomial_parts(n, k)
                assert len(nums) == k + 1
                if backend == "rational":
                    assert dens == [10 ** (j * (n - j)) for j in range(k + 1)]
                else:
                    assert dens is None

    def test_negative_degree(self):
        with pytest.raises(IndexOutOfRange):
            lucasnomial_row(-1, make_params(F(1), F(1)))


class PairModel:
    """Reference Gaussian rational: a plain pair of Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = F(re), F(im)

    def __add__(self, o):
        return PairModel(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return PairModel(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return PairModel(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        norm = o.re * o.re + o.im * o.im
        return PairModel(
            (self.re * o.re + self.im * o.im) / norm, (self.im * o.re - self.re * o.im) / norm
        )

    def __pow__(self, n):
        base = self if n >= 0 else PairModel(1) / self
        out = PairModel(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def str(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def repr(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
operands = st.one_of(
    st.tuples(wide_fractions, wide_fractions).map(lambda p: ("gaussian", p)),
    wide_fractions.map(lambda f: ("fraction", f)),
    st.integers(-10**6, 10**6).map(lambda i: ("int", i)),
)


def _build(operand):
    kind, value = operand
    if kind == "gaussian":
        return GaussianRational(*value), PairModel(*value)
    return value, PairModel(value)


def _agrees(g, m):
    """Same value as the model, canonically stored, with unchanged str and repr."""
    assert isinstance(g, GaussianRational)
    assert (g.re, g.im) == (m.re, m.im)
    assert type(g.re) is F and type(g.im) is F
    assert g._d > 0 and math.gcd(g._a, g._b, g._d) == 1
    assert str(g) == m.str() and repr(g) == m.repr()
    return True


class TestGaussianTripleAgainstPairModel:
    @given(st.tuples(wide_fractions, wide_fractions), operands)
    @settings(max_examples=200, deadline=None)
    def test_ring_operations_and_division(self, pair, operand):
        g, m = GaussianRational(*pair), PairModel(*pair)
        o, om = _build(operand)
        assert _agrees(g, m)
        for op in (operator.add, operator.sub, operator.mul):
            assert _agrees(op(g, o), op(m, om))
            assert _agrees(op(o, g), op(om, m))
        assert _agrees(-g, PairModel(-m.re, -m.im))
        assert _agrees(g.conjugate(), PairModel(m.re, -m.im))
        if om.re or om.im:
            assert _agrees(g / o, m / om)
        else:
            with pytest.raises(ZeroDivisionError):
                g / o
        if g:
            assert _agrees(o / g, om / m)
        else:
            with pytest.raises(ZeroDivisionError):
                o / g

    @given(st.tuples(wide_fractions, wide_fractions), st.integers(-7, 7))
    @settings(max_examples=100, deadline=None)
    def test_powers(self, pair, n):
        g, m = GaussianRational(*pair), PairModel(*pair)
        if n < 0 and not g:
            with pytest.raises(ZeroDivisionError):
                g**n
        else:
            assert _agrees(g**n, m**n)

    @given(wide_fractions, wide_fractions)
    @settings(max_examples=100, deadline=None)
    def test_equality_and_hash_with_rationals(self, re, im):
        g = GaussianRational(re, im)
        assert (g == re) == (im == 0) == (re == g)
        assert g == GaussianRational(re, im) and hash(g) == hash(GaussianRational(re, im))
        real = GaussianRational(re)
        assert real == re and hash(real) == hash(re)
        assert bool(g) == bool(re or im)
        if re.denominator == 1:
            assert real == int(re) and int(re) == real and hash(real) == hash(int(re))
        assert g != GaussianRational(re + 1, im) and g != GaussianRational(re, im + 1)

    def test_construction_forms_are_canonical(self):
        assert _agrees(GaussianRational(F(2, 4), F(-6, 8)), PairModel(F(1, 2), F(-3, 4)))
        assert _agrees(GaussianRational(0.5, "3/4"), PairModel(F(1, 2), F(3, 4)))
        assert _agrees(GaussianRational(GaussianRational(F(1, 3), 2)), PairModel(F(1, 3), 2))
        assert _agrees(GaussianRational(), PairModel(0))
        assert (GaussianRational(6, 4)._a, GaussianRational(6, 4)._d) == (6, 1)
        with pytest.raises(TypeError):
            GaussianRational(GaussianRational(1), 1)

    def test_float_and_complex_rejected(self):
        g = GaussianRational(1, 2)
        for bad in (1.5, 1j):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(g, bad)
                with pytest.raises(TypeError):
                    op(bad, g)
        with pytest.raises(TypeError):
            g ** F(1, 2)
        assert (g == 1 + 2j) is False

    def test_subtraction_does_not_go_through_addition(self, monkeypatch):
        # the tracer counts one Gaussian op per operator, so - must not call + as well
        monkeypatch.setattr(GaussianRational, "__add__", None)
        monkeypatch.setattr(GaussianRational, "__radd__", None)
        g = GaussianRational(1, 2)
        assert _agrees(g - F(1, 3), PairModel(F(2, 3), 2))
        assert _agrees(F(1, 3) - g, PairModel(F(-2, 3), -2))
        assert _agrees(g - GaussianRational(F(1, 2), 5), PairModel(F(1, 2), -3))


class TestPascal:
    def test_both_recurrences_exact(self):
        rng = random.Random(11)
        for _ in range(15):
            a = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
            b = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
            if a == b or a + b == 0:
                continue
            p = params_from_roots(a, b)
            phi, psi = p.phi, p.phi_prime
            for n in range(2, 12):
                for k in range(1, n):
                    lhs = lucasnomial(n + 1, k, p)
                    assert lhs == phi**k * lucasnomial(n, k, p) + psi ** (n + 1 - k) * lucasnomial(n, k - 1, p)
                    assert lhs == psi**k * lucasnomial(n, k, p) + phi ** (n + 1 - k) * lucasnomial(n, k - 1, p)


class TestBinom2:
    def test_values(self):
        assert binom2(0) == 0
        assert binom2(5) == 10
        assert binom2(7 + 3) == binom2(7) + binom2(3) + 21

    def test_integer_identities_over_range(self):
        for n in range(-50, 51):
            for k in range(-50, 51):
                assert binom2(n + k) == binom2(n) + binom2(k) + n * k
                assert binom2(n - k) == binom2(n) + binom2(k) + k * (1 - n)

    def test_requires_integer(self):
        with pytest.raises(TypeError):
            binom2(F(1, 2))


@pytest.mark.parametrize("call", [lucas_v, binet, lucastorial], ids=lambda f: f.__name__)
def test_negative_index_rejected_by_every_sequence_function(call):
    with pytest.raises(IndexOutOfRange):
        call(-1, make_params(F(1), F(1)))


def test_rarely_taken_scalar_branches():
    g = GaussianRational(3, 4)
    assert +g is g
    assert magnitude(g) == 5.0 and magnitude(GaussianRational(0)) == 0.0
    tidy = promote(complex(2, 0), Backend.COMPLEX)
    assert tidy == 2.0 and type(tidy) is float
    # the discriminant 4 + 3i has the square norm 25, but (4 + 5)/2 is no rational square
    p = make_params(GaussianRational(2), GaussianRational(0, F(3, 4)))
    assert p.disc == GaussianRational(4, 3) and not p.roots_available


def test_reading_a_term_builds_no_factorial():
    # {n}! has O(n^2) digits over the integers; a caller of {n} alone must not pay for it
    p = make_params(F(1), F(1))
    lucas_u(2000, p)
    lucas_v(2000, p)
    lucasnomial_row(40, p)
    assert len(p.cache._fact) == 1
    assert lucastorial(5, p) == 1 * 1 * 2 * 3 * 5 and len(p.cache._fact) == 6


@pytest.mark.parametrize("read", ["u", "factorial"])
@pytest.mark.parametrize("s, t", [(F(1), F(1)), (GaussianRational(1), GaussianRational(0, 1)), (1.0, 1.0)])
def test_cache_readers_refuse_a_negative_index_cold_and_warm(read, s, t):
    # a negative n was read as a Python index: factorial(-1) gave {5}! = 30 on Fibonacci
    cache = make_params(s, t).cache
    for warm in (False, True):
        if warm:
            cache.factorial(5)
        with pytest.raises(IndexOutOfRange):
            getattr(cache, read)(-1)
    assert cache.factorial(5) == lucastorial(5, make_params(s, t))


def _rational(rng):
    """A seeded rational: zero a fifth of the time, otherwise either sign over a small denominator."""
    if rng.random() < 0.2:
        return F(0)
    return F(rng.randint(-40, 40) or 1, rng.randint(1, 30))


def _gaussian_int_power_oracle(a, b, n):
    ra, rb = 1, 0
    for _ in range(n):
        ra, rb = ra * a - rb * b, ra * b + rb * a
    return ra, rb


class TestTripleLayer:
    """scalars' exact triple layer against Fraction and GaussianRational arithmetic."""

    def test_reader_gives_the_canonical_triple(self):
        rng = random.Random(3301)
        for _ in range(400):
            re, im = _rational(rng), _rational(rng)
            a, b, d = exact_triple(GaussianRational(re, im))
            assert d > 0 and math.gcd(a, b, d) == 1
            assert (F(a, d), F(b, d)) == (re, im)
            assert exact_triple(re) == (re.numerator, 0, re.denominator)
            n = rng.randint(-10**30, 10**30)
            assert exact_triple(n) == (n, 0, 1) and exact_triple(F(n)) == (n, 0, 1)
        assert exact_triple(True) == (1, 0, 1)
        for other in (0.5, 1j, "1", None):
            assert exact_triple(other) is None

    def test_makers_normalise_any_triple_once(self):
        # the column maker builds every entry of integer columns with one normalisation
        rng = random.Random(3302)
        re, im, den = [], [], []
        for _ in range(400):
            re.append(rng.choice((0, rng.randint(-500, 500))))
            im.append(rng.choice((0, rng.randint(-500, 500))))
            den.append(rng.choice((-1, 1)) * rng.randint(1, 400))
        gaussian = exact_column(Backend.GAUSSIAN, re, im, den)
        rational = exact_column(Backend.RATIONAL, re, None, den)
        for a, b, d, g, q in zip(re, im, den, gaussian, rational):
            assert type(g) is GaussianRational and g == GaussianRational(F(a, d), F(b, d))
            assert exact_triple(g) == exact_triple(GaussianRational(F(a, d), F(b, d)))
            assert type(q) is F and q == F(a, d)
        assert exact_column(Backend.GAUSSIAN, *zip(*map(exact_triple, gaussian))) == gaussian
        assert exact_column(Backend.RATIONAL, *zip(*map(exact_triple, rational))) == rational
        assert exact_column(Backend.GAUSSIAN, re, None, den) == [GaussianRational(F(a, d)) for a, d in zip(re, den)]
        with pytest.raises(ZeroDivisionError):
            exact_column(Backend.GAUSSIAN, [1], [1], [0])
        with pytest.raises(ZeroDivisionError):
            exact_column(Backend.RATIONAL, [1], None, [0])

    def test_power_is_repeated_multiplication(self):
        rng = random.Random(3303)
        bases = [(0, 0), (0, 1), (1, 0), (-1, 0), (0, -3), (5, 0), (-2, 7)]
        bases += [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(30)]
        for a, b in bases:
            for n in (0, 1, 2, 3, rng.randint(4, 40), 150):
                assert gaussian_integer_power(a, b, n) == _gaussian_int_power_oracle(a, b, n)

    def test_gaussian_rational_powers_are_repeated_products(self):
        rng = random.Random(3304)
        values = [GaussianRational(0, F(-3, 4)), GaussianRational(F(-5, 6)), GaussianRational(2, -1)]
        values += [GaussianRational(_rational(rng), _rational(rng)) for _ in range(40)]
        for g in values:
            for n in (0, 1, 2, rng.randint(3, 25), 90):
                product = GaussianRational(1)
                for _ in range(n):
                    product = product * g
                assert g**n == product and exact_triple(g**n) == exact_triple(product)
                if g:
                    inverse = g ** -n
                    assert inverse == GaussianRational(1) / product and inverse * product == 1
        with pytest.raises(ZeroDivisionError):
            GaussianRational(0) ** -2
