import math

import pytest

from pacslab import checks, downconversion, jaynes, pacs

NAN = float("nan")


def test_worst_of_keeps_nan():
    assert checks.worst_of([]) == 0.0
    assert checks.worst_of([-1.0, 2.5e-16]) == 2.5e-16
    for values in ([NAN], [NAN, 1.0], [1.0, NAN, 3.0]):
        assert math.isnan(checks.worst_of(values))


def test_pair_dims_size_only_a_missing_truncation(monkeypatch):
    _, auto_b = downconversion.auto_dims(0.8, 1.0)
    assert checks._pair_dims(0.8, [1.0], (0, 1), 80, None) == [(1.0, 80, auto_b)]
    # a missing dim_a is sized from the forced dim_b, not from auto_dims' own
    assert checks._pair_dims(0.8, [1.0], (0, 1), None, 60) == [(1.0, 85, 60)]
    # two forced dims never ask auto_dims, so r = 2.4 passes its Laguerre cap
    monkeypatch.setattr("pacslab.downconversion.auto_dims", None)
    assert checks._pair_dims(0.8, [2.4], (0, 1, 2), 800, 700) == [(2.4, 800, 700)]


@pytest.mark.parametrize(
    "target, measure",
    [
        ("_interior_rel_dev", lambda: checks.normal_ordering_dev(6, 3)),
        ("_interior_rel_dev", lambda: checks.pushthrough_dev(6, 3)),
        ("fock.fidelity", lambda: checks.factorization_deficit([(0.5, 0.1, 0.0)], 1e-13)),
    ],
)
def test_nan_measurement_reaches_the_fold(monkeypatch, target, measure):
    # target is a name as seen from checks: a function of its own, or one it
    # reaches through a module
    monkeypatch.setattr(f"pacslab.checks.{target}", lambda *args: NAN)
    assert math.isnan(measure())


@pytest.mark.parametrize(
    "module, name, check",
    [
        (jaynes, "joint_fidelity", "jc_series_vs_exact"),
        (pacs, "pacs_norm_sq", "pacs_norm_consistency"),
    ],
)
def test_nan_measurement_fails_its_check(monkeypatch, module, name, check):
    monkeypatch.setattr(module, name, lambda *args: NAN)
    row = next(row for row in checks.verify(1e-12) if row["check"] == check)
    assert math.isnan(row["measured"])
    assert row["passed"] is False
