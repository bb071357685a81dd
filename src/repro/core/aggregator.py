"""The Result Aggregator (paper Figure 1, stage 4).

Turns the results table produced by the combine query into per-axis
statistics: expectations, standard deviations, overload probabilities,
confidence intervals. The statistics feed the online graph directly and the
Guide's convergence decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ScenarioError
from repro.sqldb.table import ResultSet


@dataclass(frozen=True)
class SeriesStats:
    """Per-axis statistics of one output alias."""

    alias: str
    expectation: np.ndarray  # E[output | t], one entry per axis value
    stddev: np.ndarray  # sqrt(Var[output | t]) over worlds
    n_worlds: int

    def ci_halfwidth(self, z: float = 1.96) -> np.ndarray:
        """Normal-approximation confidence half-width of the expectation.

        With one world (or none) no variance estimate exists — the ddof=1
        stddev is NaN — so the half-width is ``inf`` everywhere: an
        undetermined estimate must never look converged to the round
        protocol's stopping rule (:func:`repro.core.rounds.ci_converged`).
        """
        if self.n_worlds <= 1:
            return np.full_like(self.expectation, np.inf)
        return z * self.stddev / math.sqrt(self.n_worlds)


@dataclass(frozen=True)
class AxisStatistics:
    """Statistics of every output over the axis (the online-graph payload)."""

    axis_values: tuple[int, ...]
    series: Mapping[str, SeriesStats]
    n_worlds: int

    def expectation(self, alias: str) -> np.ndarray:
        return self._series(alias).expectation

    def stddev(self, alias: str) -> np.ndarray:
        return self._series(alias).stddev

    def max_expectation(self, alias: str) -> float:
        return float(np.max(self.expectation(alias)))

    def min_expectation(self, alias: str) -> float:
        return float(np.min(self.expectation(alias)))

    def _series(self, alias: str) -> SeriesStats:
        try:
            return self.series[alias.lower()]
        except KeyError:
            raise ScenarioError(f"no statistics for output {alias!r}") from None

    def aliases(self) -> tuple[str, ...]:
        return tuple(self.series.keys())


class ResultAggregator:
    """Builds :class:`AxisStatistics` from aggregate-query output."""

    def __init__(self, output_aliases: Sequence[str]) -> None:
        self.output_aliases = tuple(alias.lower() for alias in output_aliases)

    def from_aggregate_result(self, result: ResultSet, n_worlds: int) -> AxisStatistics:
        """Parse the Query Generator's aggregate query output.

        Expects columns ``t, e_<alias>, sd_<alias>, ...`` ordered by ``t``.
        """
        axis_values = tuple(int(v) for v in result.column("t"))
        series: dict[str, SeriesStats] = {}
        for alias in self.output_aliases:
            expectation = np.asarray(
                [_nan_if_none(v) for v in result.column(f"e_{alias}")], dtype=float
            )
            stddev = np.asarray(
                [_nan_if_none(v) for v in result.column(f"sd_{alias}")], dtype=float
            )
            series[alias] = SeriesStats(
                alias=alias, expectation=expectation, stddev=stddev, n_worlds=n_worlds
            )
        return AxisStatistics(axis_values=axis_values, series=series, n_worlds=n_worlds)

    def from_sample_matrices(
        self, matrices: Mapping[str, np.ndarray], axis_values: Sequence[int]
    ) -> AxisStatistics:
        """Build statistics directly from sample matrices (test utility).

        The production path goes through SQL; this exists so property tests
        can cross-check the SQL aggregation against numpy.
        """
        n_worlds = 0
        series: dict[str, SeriesStats] = {}
        for alias, matrix in matrices.items():
            data = np.asarray(matrix, dtype=float)
            n_worlds = data.shape[0]
            series[alias.lower()] = SeriesStats(
                alias=alias.lower(),
                expectation=data.mean(axis=0),
                stddev=data.std(axis=0, ddof=1) if data.shape[0] > 1 else np.zeros(data.shape[1]),
                n_worlds=n_worlds,
            )
        return AxisStatistics(
            axis_values=tuple(int(v) for v in axis_values), series=series, n_worlds=n_worlds
        )


def __getattr__(name: str):
    """Resolve the legacy ``ConvergenceTracker`` spelling, with a warning.

    The tracker was folded into the round/CI machinery in
    :mod:`repro.core.rounds`. The warning is attributed to the caller
    (``stacklevel=2``), so the CI ``deprecations`` job flags internal
    callers while external code merely sees the notice (PR 5's policy).
    """
    if name == "ConvergenceTracker":
        import warnings

        warnings.warn(
            "repro.core.aggregator.ConvergenceTracker is deprecated; "
            "import it from repro.core.rounds (the round/CI machinery)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.core.rounds import ConvergenceTracker

        return ConvergenceTracker
    raise AttributeError(
        f"module 'repro.core.aggregator' has no attribute {name!r}"
    )


def error_against_reference(
    estimate: AxisStatistics, reference: AxisStatistics, alias: str
) -> float:
    """Max absolute expectation error of ``estimate`` vs a reference run."""
    current = estimate.expectation(alias)
    truth = reference.expectation(alias)
    if current.shape != truth.shape:
        raise ScenarioError(
            f"shape mismatch comparing {alias!r}: {current.shape} vs {truth.shape}"
        )
    finite = np.isfinite(current) & np.isfinite(truth)
    if not finite.any():
        return math.inf
    return float(np.max(np.abs(current[finite] - truth[finite])))


def _nan_if_none(value: Any) -> float:
    return float("nan") if value is None else float(value)

