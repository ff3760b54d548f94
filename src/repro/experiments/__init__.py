"""Experiment harness: one module per table/figure of the evaluation.

Every module exposes ``run(profile=...) -> ExperimentResult`` (or a small
number of them) and can be executed directly::

    python -m repro.experiments.fig13

:mod:`repro.experiments.claims` states the paper's qualitative claims
over the same entry points; ``tests/integration/test_claims.py`` checks
them at every profile.
"""

from repro.experiments.runner import ExperimentResult, format_table

__all__ = ["ExperimentResult", "format_table"]
