"""Experiment registry: declared specs with cost hints.

Every reproduced table/figure is registered as an :class:`ExperimentSpec`
naming its runner and a relative **cost hint** (used by the parallel
executor to schedule longest-first, which minimises makespan under a
process pool).  The registry is the single dispatch point shared by
``repro experiments``, :func:`repro.experiments.all.run_all` and the
parallel runner in :mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered table/figure."""

    exp_id: str
    #: ``runner(profile)`` returning one :class:`ExperimentResult` or a
    #: tuple of them.
    runner: Callable[[str], Any]
    #: Relative wall-clock cost (any unit, consistent across specs).  The
    #: scheduler dispatches the most expensive experiment first.
    cost: float = 1.0
    #: Excluded from ``repro all`` when False (still runnable by id).
    in_all: bool = True
    description: str = ""


class ExperimentRegistry:
    """Ordered collection of :class:`ExperimentSpec` with scheduling."""

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}

    def register(
        self,
        exp_id: str,
        runner: Callable[[str], Any],
        cost: float = 1.0,
        in_all: bool = True,
        description: str = "",
    ) -> ExperimentSpec:
        if exp_id in self._specs:
            raise ConfigError(f"experiment {exp_id!r} already registered")
        spec = ExperimentSpec(
            exp_id=exp_id, runner=runner, cost=float(cost),
            in_all=in_all, description=description,
        )
        self._specs[exp_id] = spec
        return spec

    def get(self, exp_id: str) -> ExperimentSpec:
        try:
            return self._specs[exp_id]
        except KeyError:
            raise ConfigError(
                f"unknown experiment {exp_id!r}; registered: "
                f"{', '.join(self._specs)}"
            ) from None

    def __contains__(self, exp_id: str) -> bool:
        return exp_id in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def ids(self, all_only: bool = False) -> List[str]:
        return [
            s.exp_id for s in self._specs.values()
            if s.in_all or not all_only
        ]

    def schedule(self, exp_ids: Optional[Iterable[str]] = None) -> List[ExperimentSpec]:
        """Dispatch order, costliest-first.

        Returns the requested specs (default: everything with
        ``in_all=True``, duplicates collapsed) sorted by descending cost;
        the sort is stable, so ties keep the requested (or registration)
        order — the order a longest-first list scheduler should offer
        work to idle workers.
        """
        if exp_ids is None:
            wanted = [s for s in self._specs.values() if s.in_all]
        else:
            wanted = [self.get(e) for e in dict.fromkeys(exp_ids)]
        return sorted(wanted, key=lambda spec: -spec.cost)
