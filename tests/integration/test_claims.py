"""The paper-claims table (``repro.experiments.claims``) at every profile.

Each case runs one experiment once at one profile and checks every row
of the table that reads it; a failure names each broken row, the words
it checks and the value measured.
"""

import pytest

from repro.experiments import claims
from repro.workloads import zoo


@pytest.mark.parametrize(
    "exp_id, profile",
    [(exp_id, profile) for exp_id in claims.EXPERIMENTS for profile in zoo.PROFILES],
)
def test_claims_hold(exp_id, profile):
    broken = claims.check(exp_id, profile, claims.evaluate(exp_id, profile))
    assert not broken, "\n".join(broken)


CEILING = claims.Claim(
    "x/ceiling", "x", "as high as 10%", lambda result: result,
    lambda value: value <= 0.10, recorded={"paper": 0.2035},
)


@pytest.mark.parametrize("value, profile, expected", [
    (0.10, "tiny", None),
    (0.11, "tiny", "violated"),
    (0.2035, "paper", None),
    (0.20351, "paper", None),  # equal once rounded
    (0.2036, "paper", "moved"),
    (0.2034, "paper", "moved"),
    (0.09, "paper", "vanished"),
])
def test_problem_flags_violations_and_moved_records(value, profile, expected):
    why = claims.problem(CEILING, value, profile)
    assert (why is None) == (expected is None)
    assert expected is None or expected in why


def test_check_names_row_quote_and_value(monkeypatch):
    monkeypatch.setattr(claims, "CLAIMS", (CEILING,))
    assert claims.check("x", "tiny", 0.05) == []
    [line] = claims.check("x", "tiny", 0.123456)
    assert "x/ceiling" in line and "as high as 10%" in line and "0.1235" in line
