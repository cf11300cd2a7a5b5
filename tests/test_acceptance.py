"""Release gate: one test per acceptance criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and measured values.  The same battery is reachable from the command
line via ``stablecut bench --suite acceptance``.
"""

import pytest

from stablecut import acceptance


def _check(criterion):
    result = criterion(acceptance.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_oracle_cross_validation():
    _check(acceptance.criterion_1)


def test_criterion_02_dense_solver():
    _check(acceptance.criterion_2)


def test_criterion_03_metric_reduction():
    _check(acceptance.criterion_3)


def test_criterion_04_ball_guarantee():
    _check(acceptance.criterion_4)


def test_criterion_05_cut_edge_lower_bound():
    _check(acceptance.criterion_5)


def test_criterion_06_merging_solvers():
    _check(acceptance.criterion_6)


def test_criterion_07_spanning_tree():
    result = _check(acceptance.criterion_7)
    # the rates of the one-tree-at-a-time sampler: the batched one draws the same trees
    assert result.details == {"gamma=10": "rate=0.4210 bound=0.3505",
                              "gamma=20": "rate=0.6570 bound=0.5847",
                              "gamma=inf": "rate=1.0000 bound=1.0000"}


def test_criterion_08_spectral_certificate():
    result = _check(acceptance.criterion_8)
    assert result.details == {"qualified": 64, "c4_threshold": 14.9282032303,
                              "c4_spectrum_ok": True}


def test_criterion_09_relaxation_battery():
    result = _check(acceptance.criterion_9)
    assert result.details == {"pool": 200, "converged_pairs": 200, "finished_solves": 80,
                              "bipolarity_checked": 200, "tolerance_escalations": 0,
                              "c4_primal": -8.0, "k3_primal": -3.0, "k3_quad_form": -2.0}


def test_criterion_10_locally_stable_counts():
    _check(acceptance.criterion_10)
