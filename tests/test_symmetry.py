"""Two exact symmetries of the scan and star tables, and the q = 1 identity.

The highest- and lowest-weight sides run through different code (E against
F stacks, hw_vector against lowest_vector), so each side checks the other:
- duality: the scan of lam equals the scan of its dual lam* = -reversed(lam);
- inversion: (a, b) at q equals (a_l, b_l) at 1/q, and the star's h defects
  and bound at q equal its l defects and bound at 1/q.  E -> F, F -> E,
  K -> K^-1 maps U_q onto U_{1/q} and reverses the coproduct, so it swaps
  highest with lowest weights;
- at q = 1 the inversion is a symmetry of one chain: a = a_l and b = b_l.
c(n) has no lowest-weight partner, so the inversion leaves it out.
"""

import numpy as np
import pytest

from qcartan import asympt

COLUMNS = asympt.ConvergenceTable.COLUMNS


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-15), (got, want)


@pytest.mark.parametrize("coords, dual, M", [((1, 0), (0, 1), 10),
                                             ((1, 0, 0), (0, 0, 1), 7)],
                         ids=["N3", "N4"])
def test_the_scan_of_the_dual_weight_is_the_same(chains, coords, dual, M):
    t, d = (asympt.conjecture_scan(chains(c, 1.5, M)) for c in (coords, dual))
    assert list(t.ns) == list(d.ns)
    for col in COLUMNS:
        _close(t.column(col), d.column(col))


@pytest.mark.parametrize("coords, q, M", [((1,), 1.5, 12), ((1, 0), 1.5, 10),
                                          ((1, 1), 1.5, 5), ((0, 1, 0), 1.5, 7),
                                          ((1, 0, 1), 2.0, 4)],
                         ids=["omega1-N2", "omega1-N3", "rho", "omega2-N4", "adjoint-N4"])
def test_inverting_q_swaps_the_highest_and_lowest_weight_columns(chains, coords, q, M):
    t, s = (asympt.conjecture_scan(chains(coords, x, M)) for x in (q, 1.0 / q))
    assert list(t.ns) == list(s.ns)
    for h, l in (("a", "a_l"), ("b", "b_l")):
        _close(t.column(h), s.column(l))
        _close(t.column(l), s.column(h))


def test_at_q1_the_highest_and_lowest_weight_columns_agree(chains):
    t = asympt.conjecture_scan(chains((1, 1), 1.0, 6))
    _close(t.a, t.a_l)
    _close(t.b, t.b_l)


def test_inverting_q_swaps_the_star_defects(chains):
    q, M = 1.5, 8
    ch, inv = chains((1, 0), q, M), chains((1, 0), 1.0 / q, M)
    for n in range(1, M):
        r, s = asympt.star_commute_defect_chain(ch, n), asympt.star_commute_defect_chain(inv, n)
        _close([r.defect_h.basis_max, r.defect_h.matricized, r.bound_combo_h],
               [s.defect_l.basis_max, s.defect_l.matricized, s.bound_combo_l])
        _close([r.defect_l.basis_max, r.defect_l.matricized, r.bound_combo_l],
               [s.defect_h.basis_max, s.defect_h.matricized, s.bound_combo_h])
