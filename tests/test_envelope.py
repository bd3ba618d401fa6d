"""The depth envelope of the chain build, one row per chain.

Each row holds the chain weight and q, the deepest M that builds (every
level at its Weyl dimension), and the weight block whose orbit rank is
ambiguous one level deeper (AmbiguousRank, exit 2).  Each row builds its
chain once, to M, and then extends it by one level: the extension must
raise and leave the chain at M levels.  A row that moves in either
direction fails; a change that moves one updates the row.

The rho rows at q = 1.5 and at its mirror 1/1.5 stop at different depths
(11 and 12): the rank decisions are made on rounded products, and the
rounding of the two builds differs.  The omega_2 row is also a CI step,
`scan --N 4 --lambda 0,1,0 --q 2`: exit 0 at `--max-level 14` and 2 at
`--max-level 15`, naming the block Weight(-7, 4, -5).
"""

import re

import pytest

from qcartan import sps
from qcartan.numerics import AmbiguousRank
from qcartan.qcore import Weight, weyl_dim

ENVELOPE = [
    # (lam, q, deepest M that builds, ambiguous weight block at level M + 1)
    pytest.param((1, 1), 1.5, 11, Weight((-12, 9)), id="rho-q1.5"),
    pytest.param((1, 1), 1 / 1.5, 12, Weight((-5, 1)), id="rho-q1/1.5"),
    pytest.param((0, 1, 0), 2.0, 14, Weight((-7, 4, -5)), id="omega2-q2"),
]


@pytest.mark.parametrize("coords, q, M, block", ENVELOPE)
def test_depth_envelope_row(coords, q, M, block):
    lam = Weight(coords)
    ch = sps.CartanChain(lam, q, M)
    assert ch.dims == [weyl_dim(lam * n) for n in range(M + 1)]
    with pytest.raises(AmbiguousRank, match=re.escape(
            f"orbit of highest weight {lam * (M + 1)}, weight block {block}: rank gap")):
        ch.extend(M + 1)
    assert ch.M == M and len(ch.levels) == M + 1
