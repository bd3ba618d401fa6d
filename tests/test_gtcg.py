"""Pattern enumeration and the coupling-coefficient closed form."""

import numpy as np
import pytest

from qcartan import gtcg
from qcartan.gtcg import GTPattern, MissingComponent
from qcartan.qcore import Weight, q_int, weyl_dim


def test_pattern_enumeration_counts_match_dimensions():
    for mu in ((1, 0), (2, 0), (3, 0), (2, 1, 0), (1, 1, 0), (3, 1, 0),
               (2, 2, 0), (1, 1, 1, 0), (2, 1, 1, 0)):
        pats = gtcg.gt_enumerate(mu)
        lam = Weight.from_partition(mu)
        assert len(pats) == weyl_dim(lam)
        assert all(p.is_valid() for p in pats)
        assert all(p.top == mu for p in pats)
        assert len({p.rows for p in pats}) == len(pats)


def test_pattern_input_normalization():
    # a missing trailing zero is appended, a Weight is converted
    assert len(gtcg.gt_enumerate((2, 1))) == len(gtcg.gt_enumerate((2, 1, 0)))
    assert len(gtcg.gt_enumerate(Weight((1, 1)))) == 8
    assert len(gtcg.gt_enumerate((2,), N=3)) == weyl_dim(Weight((2, 0)))
    with pytest.raises(ValueError):
        gtcg.gt_enumerate((1, 2, 0))
    with pytest.raises(ValueError):
        gtcg.gt_enumerate((2, 1), N=2)
    with pytest.raises(ValueError):
        gtcg.gt_enumerate((2, 1, 0), N=2)


def test_pattern_validity_rules():
    good = GTPattern(((2, 1, 0), (2, 1), (1,)))
    assert good.is_valid()
    assert good.N == 3 and good.top == (2, 1, 0)
    assert not GTPattern(((2, 1, 0), (2, 2), (2,))).is_valid()  # betweenness
    assert not GTPattern(((2, 1, 0), (2,), (2,))).is_valid()    # row lengths
    assert not GTPattern(((1, 0), (-1,))).is_valid()            # negative
    high = GTPattern.highest((2, 1, 0))
    assert high.is_valid()
    assert high.rows == ((2, 1, 0), (2, 1), (2,))
    assert GTPattern.highest((2,), N=3).rows == ((2, 0, 0), (2, 0), (2,))


def test_closed_form_hand_values():
    for mu in ((1, 0), (2, 1, 0), (3, 1, 1, 0)):
        assert gtcg.cg_closed_form(1, mu, 1.5) == 1.0
    assert abs(gtcg.cg_closed_form(2, (1, 0), 1.0) - 1.0 / np.sqrt(2)) <= 1e-15
    assert abs(gtcg.cg_closed_form(2, (2, 1, 0), 1.5) - 0.8320502943378436) <= 1e-15
    for m in range(1, 7):
        want = np.sqrt(1.5) * np.sqrt(q_int(m, 1.5) / q_int(m + 1, 1.5))
        assert abs(gtcg.cg_closed_form(2, (m, 0), 1.5) - want) <= 1e-14
        assert abs(gtcg.cg_closed_form(2, (m, 0), 1.0) - np.sqrt(m / (m + 1.0))) <= 1e-14
    # a repeated entry kills the coefficient together with the component
    assert gtcg.cg_closed_form(2, (2, 2), 1.5) == 0.0
    with pytest.raises(ValueError):
        gtcg.cg_closed_form(0, (2, 1, 0), 1.5)
    with pytest.raises(ValueError):
        gtcg.cg_closed_form(4, (2, 1, 0), 1.5)


def test_component_shifts_are_standard_weights():
    assert gtcg.component_shift(1, 3).coords == (1, 0)
    assert gtcg.component_shift(2, 3).coords == (-1, 1)
    assert gtcg.component_shift(3, 3).coords == (0, -1)
    assert gtcg.component_shift(1, 2).coords == (1,)
    assert gtcg.component_shift(2, 2).coords == (-1,)
    for N in (2, 3, 4):
        total = sum(np.array(gtcg.component_shift(i, N).coords)
                    for i in range(1, N + 1))
        assert not np.any(total)  # standard weights sum to zero


def test_numeric_overlap_matches_closed_form():
    from qcartan.sps import GeneralWeightBuilder

    for N, parts in ((2, ((1, 0), (2, 0), (3, 0), (4, 0))),
                     (3, ((2, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)))):
        for q in (1.0, 1.5):
            builder = GeneralWeightBuilder(N, q)
            for mu in parts:
                for i in range(1, N + 1):
                    try:
                        num = gtcg.cg_numeric(i, mu, q, builder=builder)
                    except MissingComponent:
                        assert gtcg.cg_closed_form(i, mu, q) == 0.0
                        continue
                    assert abs(num - gtcg.cg_closed_form(i, mu, q)) <= 1e-10


def test_missing_component_raises():
    with pytest.raises(MissingComponent):
        gtcg.cg_numeric(2, (2, 2), 1.5)
    with pytest.raises(ValueError):
        gtcg.cg_numeric(5, (2, 1, 0), 1.5)


def test_grid_layout():
    rows = gtcg.cg_grid(3, 1.5, 2)
    keys = [(mu, i) for mu, i, _, _ in rows]
    assert len(set(keys)) == len(keys)  # every (mu, i) exactly once
    assert sorted({mu for mu, _ in keys}) == [
        (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0)]
    rows = gtcg.cg_grid(2, 1.5, 3)
    assert len(rows) == 6  # (1,0),(2,0),(3,0) each with i = 1, 2
    for mu, i, closed, num in rows:
        assert len(mu) == 2 and max(mu) <= 3
        assert i in (1, 2)
        assert abs(closed - num) <= 1e-10
        if i == 1:
            assert abs(num - 1.0) <= 1e-12
