"""The flat sorted map against block-wise oracles.

A SortedMap stores one sparse matrix over the total ranks; blocks are a
view of it. Random maps between multi-summand modules are built from
block dicts through the public constructor, and every operation on the
flat matrix must agree with the same operation done block by block.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracturecube.exact_linalg import ExactMatrix, InputError
from fracturecube.sorted_complex import (
    Q,
    Qp,
    SortedMap,
    SortedModule,
    Z,
    ZLOC,
    Zp,
    sort_map_exists,
)

from genutil import blockwise_compose, blockwise_scale, blockwise_sum, dense_assemble

SORTS = (Z, ZLOC, Q, Zp(2), Qp(2), Zp(3))
scalars = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
modules = st.lists(st.tuples(st.sampled_from(SORTS), st.integers(1, 3)),
                   max_size=4).map(SortedModule)


def matrices(rows, cols):
    return st.lists(scalars, min_size=rows * cols, max_size=rows * cols).map(
        lambda vals: ExactMatrix(rows, cols, {(i, j): vals[i * cols + j]
                                              for i in range(rows) for j in range(cols)}))


@st.composite
def block_dicts(draw, source, target):
    """Random blocks, each on a sort pair with a canonical map, zero ones included."""
    out = {}
    for i, (s, rs) in enumerate(source.summands):
        for j, (t, rt) in enumerate(target.summands):
            if sort_map_exists(s, t) and draw(st.booleans()):
                out[(i, j)] = draw(matrices(rt, rs))
    return out


@st.composite
def chains(draw, length):
    """Modules m_0 .. m_length and block dicts of maps m_k -> m_{k+1}."""
    mods = [draw(modules) for _ in range(length + 1)]
    return mods, [draw(block_dicts(mods[k], mods[k + 1])) for k in range(length)]


def nonzero(blocks):
    return {k: m for k, m in blocks.items() if not m.is_zero()}


@settings(max_examples=150, deadline=None)
@given(chains(2), scalars)
def test_flat_operations_match_blockwise_oracles(chain, c):
    (a, b, d), (fb, gb) = chain
    f, g = SortedMap(a, b, fb), SortedMap(b, d, gb)
    assert f.blocks() == dict(sorted(nonzero(fb).items()))
    assert list(f.blocks()) == sorted(f.blocks())
    assert SortedMap(a, b, f.blocks()) == f
    assert g.compose(f) == SortedMap(a, d, blockwise_compose(gb, fb))
    assert f.scale(c) == SortedMap(a, b, blockwise_scale(fb, c))
    assert f + f.scale(c) == SortedMap(a, b, blockwise_sum(fb, blockwise_scale(fb, c)))
    assert (f - f).is_zero()
    assert SortedMap.from_dense(a, b, f.matrix) == f


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_assemble_matches_dense_oracle(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    pieces = []
    for _ in range(data.draw(st.integers(0, 4))):
        r, c = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
        ro, co = data.draw(st.integers(0, rows - r)), data.draw(st.integers(0, cols - c))
        pieces.append((ro, co, data.draw(matrices(r, c))))
    got = ExactMatrix.assemble(rows, cols, pieces)
    assert got == dense_assemble(rows, cols, pieces)
    assert all(v for _, v in got.items())


def _qp_into_q():
    # the first pair Z -> Z is fine; the forbidden Qp(2) -> Q sits in the second
    return (SortedModule([(Z, 1), (Qp(2), 1)]), SortedModule([(Z, 1), (Q, 1)]))


def test_constructor_rejects_a_later_forbidden_sort_pair():
    src, tgt = _qp_into_q()
    one = ExactMatrix.identity(1)
    with pytest.raises(InputError, match="no canonical sort map Qp:2 -> Q"):
        SortedMap(src, tgt, {(0, 0): one, (1, 1): one})


def test_from_dense_rejects_a_later_forbidden_sort_pair():
    src, tgt = _qp_into_q()
    with pytest.raises(InputError, match="no canonical sort map Qp:2 -> Q"):
        SortedMap.from_dense(src, tgt, ExactMatrix.identity(2))
    # a zero block on the forbidden pair is no map at all
    ok = SortedMap.from_dense(src, tgt, ExactMatrix.from_rows([[1, 0], [0, 0]]))
    assert list(ok.blocks()) == [(0, 0)]


def test_blocks_of_a_zero_block_are_dropped():
    src, tgt = _qp_into_q()
    f = SortedMap(src, tgt, {(1, 1): ExactMatrix.zeros(1, 1)})
    assert f.is_zero() and f.blocks() == {}
