"""linalg.pencil against the direct sum it packs.

``pencil`` evaluates M(a) = sum_k a_k M_k on Kronecker-packed ints: each
M_k is packed once, into machine words through ``struct`` and ``array`` or,
when a slot is wider than 64 bits, by shift.  The reference is the sum
itself, entry by entry.  Inputs: QQ (ints of either sign, some wider than
64 bits, which take the shift path), F_2, F_101 and F_(2^61 - 1) (slots wider
than 64 bits); both layouts, strided (M_k[i][j] = planes[i][j][k]) and
blocked (M_k = planes[k]); coefficients at 0 and at +-top_a; and pencils with
no matrices or with matrices of no entries.
"""

from operator import mul

from hypothesis import given, settings, strategies as st

from gorlab import linalg

CHARACTERISTICS = (0, 2, 101, 2**61 - 1)
WIDE = 2**70


def direct(planes, a, p, strided):
    """sum_k a_k M_k, entry by entry, mod p at p > 0."""
    if strided:
        M = [[sum(map(mul, a, row)) for row in plane] for plane in planes]
    else:
        rows = len(planes[0]) if planes else 0
        cols = len(planes[0][0]) if rows else 0
        M = [[sum(a_k * plane[i][j] for a_k, plane in zip(a, planes)) for j in range(cols)]
             for i in range(rows)]
    return [[x % p for x in row] for row in M] if p else M


@st.composite
def pencils(draw):
    p = draw(st.sampled_from(CHARACTERISTICS))
    strided = draw(st.booleans())
    planes, rows, cols = (draw(st.integers(0, 4)) for _ in range(3))
    if p:
        entry = st.integers(0, p - 1)
    else:
        top = draw(st.sampled_from((3, WIDE)))
        entry = st.integers(-top, top)
    table = [[[draw(entry) for _ in range(cols)] for _ in range(rows)] for _ in range(planes)]
    n = cols if strided else planes
    top_a = p - 1 if p else draw(st.sampled_from((0, 1, 9, WIDE)))
    extremes = (0, top_a) if p else (0, top_a, -top_a)
    coefficient = st.one_of(st.sampled_from(extremes),
                            st.integers(0 if p else -top_a, top_a))
    a = [draw(coefficient) for _ in range(n)]
    return table, p, top_a, strided, a


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pencils())
def test_pencil_matches_the_direct_sum(case):
    planes, p, top_a, strided, a = case
    at = linalg.pencil(planes, p, top_a, strided)
    assert at(a) == direct(planes, a, p, strided)
    # the packed matrices are read, not consumed: a second point evaluates alike
    b = [top_a - x if p else -x for x in a]
    assert at(b) == direct(planes, b, p, strided)


def test_empty_and_entryless_pencils():
    # no matrices: M(a) is the empty matrix, or zeros of the planes' shape
    assert linalg.pencil([], 0, 9, False)([]) == []
    assert linalg.pencil([], 7, 6, True)([]) == []
    assert linalg.pencil([[[], []], [[], []]], 0, 9, True)([]) == [[0, 0], [0, 0]]
    # matrices with no entries
    assert linalg.pencil([[], []], 0, 9, False)([1, -1]) == []
    assert linalg.pencil([[[], [], []]] * 2, 5, 4, False)([1, 2]) == [[], [], []]
    assert linalg.pencil([[], [], []], 0, 9, True)([]) == [[], [], []]
