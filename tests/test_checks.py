import math

import pytest

from pacslab import checks, jaynes, pacs

NAN = float("nan")


def test_worst_of_keeps_nan():
    assert checks.worst_of([]) == 0.0
    assert checks.worst_of([-1.0, 2.5e-16]) == 2.5e-16
    for values in ([NAN], [NAN, 1.0], [1.0, NAN, 3.0]):
        assert math.isnan(checks.worst_of(values))


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
