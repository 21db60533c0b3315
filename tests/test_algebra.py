"""exact_sums against math.fsum, bit for bit (value and sign of zero), and
its fallbacks to fsum: inf, nan and fsum's own errors; where its rounding
test decides and where the split to zero does, and the passes it takes on
the rows the long rotator and interference reports sum; norm against
np.linalg.norm, bit for bit."""
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ymvac import algebra, cli
from ymvac.algebra import _CHUNK, _FSUM_BELOW, _LEVELS, exact_sums, norm
from ymvac.rotator import TERM_CAP

# both sides of the short-row cutoff and of the block size, and a few blocks
LENGTHS = (0, 1, 2, _FSUM_BELOW - 1, _FSUM_BELOW, _FSUM_BELOW + 1, 5000, _CHUNK - 1, _CHUNK, _CHUNK + 1,
           2 * _CHUNK + 3)


def _fsum_or_error(row):
    """math.fsum of the row, or the type of the error it raises."""
    try:
        return math.fsum(row.tolist())
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_same(got, ref):
    if isinstance(ref, type):
        assert got is ref
    elif math.isnan(ref):
        assert math.isnan(got)
    else:
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref), (got.hex(), ref.hex())


def _exact_sum_or_error(row):
    try:
        return exact_sums([row])[0]
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _sums_and_work(run):
    """The value of run() and, per row that exact_sums splits, [levels,
    to_zero, decided]: its passes (_extract calls) up to the last level a
    rounding test could use, its passes after them, and whether a rounding
    test decided it (None where no test could run: a row of zeros, or of
    several blocks, all of whose passes count as to_zero)."""
    work = []
    exact_sum, extract, decided = algebra._exact_sum, algebra._extract, algebra._decided

    def row_sum(*args):
        work.append([0, 0, None])
        return exact_sum(*args)

    def split(*args):
        work[-1][1] += 1
        return extract(*args)

    def test(*args):
        before = work[-1][1]  # the first pass, 1
        total = decided(*args)
        work[-1][:] = [work[-1][1] - before + 1, 0, total is not None]
        return total

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_exact_sum", row_sum)
        mp.setattr(algebra, "_extract", split)
        mp.setattr(algebra, "_decided", test)
        return run(), work


def _padded(parts, n, seed, spread=60):
    """The parts among n - len(parts) fillers x, -x of random size up to
    2^spread times the first part's, shuffled: the exact sum is the parts'."""
    rng = np.random.default_rng(seed)
    ex = math.frexp(parts[0])[1]
    m = (n - len(parts)) // 2
    x = np.ldexp(rng.integers(-(2**53) + 1, 2**53, m).astype(float),
                 rng.integers(max(ex - 200, -1074), ex + spread, m) - 52)
    row = np.concatenate([parts, x, -x, np.zeros(n - len(parts) - 2 * m)])
    rng.shuffle(row)
    return row


@st.composite
def float_rows(draw, lengths=LENGTHS):
    """Rows of n doubles M 2^e (integer |M| < 2^53, so any mantissa) with e
    drawn from a sub-range of [-1126, 947]: subnormals at the bottom, up to
    2^1000 at the top; optionally all of one sign (the partial sums grow like
    n max|x|), with +0.0/-0.0 entries, or mirrored into exact x/-x
    cancellation."""
    n = draw(st.sampled_from(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e_lo = draw(st.integers(-1126, 947))
    e_hi = draw(st.integers(e_lo, min(e_lo + draw(st.sampled_from([0, 30, 120, 2100])), 947)))
    x = np.ldexp(rng.integers(-(2**53) + 1, 2**53, n).astype(float), rng.integers(e_lo, e_hi + 1, n))
    if draw(st.booleans()):
        x = np.abs(x)
    if draw(st.booleans()):  # x and -x, shuffled: the sum is exactly zero (plus the odd one out)
        x[n // 2:2 * (n // 2)] = -x[:n // 2]
        rng.shuffle(x)
    zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    sign = draw(st.sampled_from([0.0, -0.0, None]))
    x[zeros] = rng.choice([0.0, -0.0], zeros.sum()) if sign is None else sign
    return x


class TestExactSums:
    @settings(deadline=None, max_examples=80)
    @given(float_rows())
    @example(np.full(_FSUM_BELOW, -0.0))
    @example(np.full(_FSUM_BELOW, 5e-324))
    @example(np.array([2.0**1000, -(2.0**1000)] * _FSUM_BELOW))
    def test_matches_fsum(self, row):
        _assert_same(exact_sums([row])[0], math.fsum(row.tolist()))

    @settings(deadline=None, max_examples=20)
    @given(st.lists(float_rows(lengths=(_FSUM_BELOW, 3000)), min_size=1, max_size=3), st.booleans())
    def test_rows_and_views(self, rows, as_views):
        # rows of one 2-D array, or every other element of each row (strided views)
        n = min(r.size for r in rows)
        stack = np.stack([r[:n] for r in rows])
        given_rows = [r[::2] for r in rows] if as_views else stack
        for got, row in zip(exact_sums(given_rows), given_rows):
            _assert_same(got, math.fsum(row.tolist()))

    @settings(deadline=None, max_examples=40)
    @given(float_rows(lengths=(3, _FSUM_BELOW, 5000)), st.lists(
        st.sampled_from([math.inf, -math.inf, math.nan, 1.5 * 2.0**1000, -(2.0**1023), 1.7e308, 2.0**1000]),
        min_size=1, max_size=3), st.data())
    def test_fallbacks(self, row, specials, data):
        # inf, nan and values past 2^1000: fsum's value or fsum's error type
        for value in specials:
            row[data.draw(st.integers(0, row.size - 1))] = value
        _assert_same(_exact_sum_or_error(row), _fsum_or_error(row))

    @pytest.mark.parametrize("n", [_FSUM_BELOW, 5000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("k", [None, 60, 300, 1000])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_ties_split_to_zero(self, n, k, sign):
        # x + ulp(x)/2 is a tie of round-half-even, and within 2^-k ulp(x) of
        # it no rounding test decides: the split to zero does, after the level
        # budget at 5000 terms or fewer, and at once from 2^15 - 1 terms, where
        # the first bound (2^30 times the fillers' 2^(e-53)) holds zero; at
        # x = 2^-700 a nudge of 2^-k ulp(x) below 2^-1074 is 0, the tie itself
        for seed, ex in enumerate((-700, -3, 0, 52, 600)):
            x = math.ldexp(1.0 + seed / 7.0, ex)
            parts = [x, math.ulp(x) / 2.0] + ([] if k is None else [math.ldexp(math.ulp(x), -k) * (-1) ** seed])
            row = sign * _padded(parts, n, seed)
            (got,), work = _sums_and_work(lambda: exact_sums([row]))
            _assert_same(got, math.fsum(row.tolist()))
            if n <= _CHUNK:
                assert work[0][0] == (_LEVELS if n <= 5000 else 1) and work[0][2] is False

    @pytest.mark.parametrize("n", [_FSUM_BELOW, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_cancelling_rows(self, n):
        # x and -x: exactly zero, fsum's +0.0, in every order; the interval
        # holds zero at once, and the split to zero decides
        rng = np.random.default_rng(n)
        half = np.ldexp(rng.normal(size=n // 2), rng.integers(-1070, 990, n // 2))
        for row in (np.concatenate([half, -half]), np.concatenate([half, [0.0] * (n % 2), -half[::-1]])):
            rng.shuffle(row)
            sums, work = _sums_and_work(lambda: exact_sums([row, -row]))
            for got in sums:
                _assert_same(got, 0.0)
            if n <= _CHUNK:
                assert [(levels, decided) for levels, _, decided in work] == [(1, False), (1, False)]

    def test_subnormal_guard(self):
        # one row, and the same row times 2^-600, whose first remainder bound
        # 2^(e-53) is below 2^-1022: the test decides the first at its first
        # level, and the guard sends the second to the split to zero
        row = np.random.default_rng(5).normal(size=3000) * 2.0**-400
        (big, small), work = _sums_and_work(lambda: exact_sums([row, row * 2.0**-600]))
        _assert_same(big, math.fsum(row.tolist()))
        _assert_same(small, math.fsum((row * 2.0**-600).tolist()))
        assert work == [[1, 0, True], [1, work[1][1], False]]
        for ex in (-960, -1000, -1021):  # ties, which the guard sends on before the level budget is spent
            x = math.ldexp(1.5, ex)
            row = _padded([x, math.ulp(x) / 2.0], 2000, -ex, spread=40)
            (got,), work = _sums_and_work(lambda: exact_sums([row]))
            _assert_same(got, math.fsum(row.tolist()))
            assert work[0][0] < _LEVELS and work[0][2] is False

    @pytest.mark.parametrize("argv, work", [
        # the winding rows of theta = 0, pi/2, pi (dN = 0, 0.3, 1; real, then
        # imaginary): the theta = 0 imaginary rows are zeros, the dN = 0 ones
        # at pi/2 and pi cancel exactly, and the theta = pi real rows oscillate
        (["rotator", "--inertia", "1e-7", "--tau", "0.3"],
         [[1, 0, True], [0, 0, None], [1, 0, True], [0, 0, None], [1, 0, True], [0, 0, None],
          [2, 0, True], [1, 4, False], [2, 0, True], [3, 0, True], [2, 0, True], [3, 0, True],
          [3, 0, True], [1, 3, False], [3, 0, True], [2, 0, True], [3, 0, True], [2, 0, True]]),
        # the spectral rows of the same grid, 9231 terms each
        (["rotator", "--inertia", "1e5", "--tau", "0.01"],
         [[1, 0, True], [0, 0, None], [2, 0, True], [1, 4, False], [1, 0, True], [1, 3, False],
          [1, 0, True], [0, 0, None], [2, 0, True], [2, 0, True], [1, 0, True], [1, 0, True],
          [1, 0, True], [0, 0, None], [2, 0, True], [3, 0, True], [1, 0, True], [1, 0, True]]),
        (["rotator", "--inertia", "1e-12", "--tau", "1", "--theta", "0"], []),  # short rows: math.fsum
        # H_0 .. H_8 of the L = 10000 window
        (["interference"], [[1, 0, True]] * 9),
        (["interference", "--momentum", "1.3,-0.4,0.25,0.9", "--angles", "1.0,0.2,0.5"], [[1, 0, True]] * 9),
    ])
    def test_passes_per_long_sums_row(self, argv, work):
        # the passes over each row of the reports that the long-sums
        # benchmark runs; split to zero, these rows took 4-7 passes each
        with contextlib.redirect_stdout(io.StringIO()):
            code, got = _sums_and_work(lambda: cli.main(argv))
        assert code == 0 and got == work

    def test_term_cap_row(self):
        rng = np.random.default_rng(7)
        row = rng.normal(size=TERM_CAP) * np.exp(-rng.uniform(0.0, 45.0, TERM_CAP))
        _assert_same(exact_sums([row])[0], math.fsum(row.tolist()))


@st.composite
def vector_batches(draw):
    """(N, 3) float64 or longdouble rows: uniform mantissas times 2^e, e drawn
    from a sub-range of the dtype's whole exponent range (subnormals at the
    bottom; at the top, squares that overflow to inf), some entries zero."""
    dtype = draw(st.sampled_from([np.float64, np.longdouble]))
    fi = np.finfo(dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    e_lo = draw(st.integers(fi.minexp - fi.nmant, fi.maxexp - 1))
    e_hi = draw(st.integers(e_lo, min(e_lo + draw(st.sampled_from([0, 40, 400, 40000])), fi.maxexp - 1)))
    v = np.ldexp(rng.uniform(-1.0, 1.0, (n, 3)).astype(dtype), rng.integers(e_lo, e_hi + 1, (n, 3)))
    v[rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return v


class TestNorm:
    @settings(deadline=None, max_examples=100)
    @given(vector_batches())
    @example(np.zeros((4, 3)))
    @example(np.full((2, 3), 5e-324))
    @example(np.array([[1e200, 0.0, 0.0], [1e154, 1e154, 1e154], [0.0, 0.0, 1e-160]]))
    @example(np.ldexp(np.ones((2, 3), dtype=np.longdouble), [[9000], [-16440]]))
    @example(np.random.default_rng(3).normal(size=(27648, 3)))
    def test_matches_linalg_norm(self, v):
        # the (N, 3) point layout (points.T) and the (3, N) component layout
        vt = np.ascontiguousarray(v.T)
        with np.errstate(over="ignore"):  # squares past the dtype's range give inf in both
            pairs = [(norm(v.T), np.linalg.norm(v, axis=1)), (norm(vt), np.linalg.norm(vt, axis=0))]
        for got, ref in pairs:
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
