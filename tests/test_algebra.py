"""exact_sums against math.fsum, bit for bit (value and sign of zero), and
its fallbacks to fsum: inf, nan and fsum's own errors; norm against
np.linalg.norm, bit for bit."""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ymvac.algebra import _CHUNK, _FSUM_BELOW, exact_sums, norm
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
