"""NWS-style performance forecasting from archived monitoring data.

Paper §1.2/§2.2: "A performance prediction service might use
monitoring data as inputs for a prediction model [26] (the Network
Weather Service), which would in turn be used by a scheduler to
determine which resources to use. ... Archives might also be used by
performance prediction systems, such as the Network Weather Service
(NWS)."

Following NWS's design, :class:`Forecaster` runs a family of simple
predictors over a series, tracks each predictor's error on past data,
and forecasts with whichever has been most accurate so far (the
"dynamic predictor selection" idea from Wolski et al.).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = ["Forecaster", "Forecast", "forecast_archive_series"]


def _last(history: Sequence[float]) -> float:
    return history[-1]


def _mean(history: Sequence[float]) -> float:
    return sum(history) / len(history)


def _median(history: Sequence[float]) -> float:
    ordered = sorted(history)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _sliding_mean(k: int) -> Callable[[Sequence[float]], float]:
    def predictor(history: Sequence[float]) -> float:
        window = history[-k:]
        return sum(window) / len(window)
    predictor.__name__ = f"mean{k}"
    return predictor


@dataclass(frozen=True)
class Forecast:
    value: float
    predictor: str
    mae: float  # the chosen predictor's mean absolute error so far


class Forecaster:
    """Ensemble-of-simple-predictors forecaster (NWS-style)."""

    def __init__(self, *, max_history: int = 512):
        self._history: deque = deque(maxlen=max_history)
        self._predictors: dict[str, Callable] = {
            "last": _last,
            "mean": _mean,
            "median": _median,
            "mean5": _sliding_mean(5),
            "mean20": _sliding_mean(20),
        }
        #: cumulative absolute error and count per predictor
        self._errors: dict[str, list] = {name: [0.0, 0]
                                         for name in self._predictors}

    # -- data ingestion ----------------------------------------------------

    def observe(self, value: float) -> None:
        """Add one measurement, first scoring every predictor on it."""
        if self._history:
            history = list(self._history)
            for name, predictor in self._predictors.items():
                err = abs(predictor(history) - value)
                acc = self._errors[name]
                acc[0] += err
                acc[1] += 1
        self._history.append(float(value))

    def observe_many(self, values) -> None:
        for v in values:
            self.observe(v)

    # -- forecasting -----------------------------------------------------------

    def mae(self, name: str) -> float:
        total, count = self._errors[name]
        return total / count if count else float("inf")

    def best_predictor(self) -> str:
        return min(self._predictors, key=self.mae)

    def forecast(self) -> Optional[Forecast]:
        """Predict the next value with the best-scoring predictor."""
        if not self._history:
            return None
        history = list(self._history)
        if len(history) == 1:
            return Forecast(value=history[0], predictor="last",
                            mae=float("inf"))
        name = self.best_predictor()
        return Forecast(value=self._predictors[name](history),
                        predictor=name, mae=self.mae(name))


def forecast_archive_series(archive, *, event: str, field: str = "VALUE",
                            host: Optional[str] = None) -> Optional[Forecast]:
    """Train a forecaster on an archived event series and predict the
    next sample — the archive-to-NWS pipeline the paper sketches."""
    from .archive import ArchiveQuery
    messages = archive.query(ArchiveQuery(host=host, event=event))
    forecaster = Forecaster()
    for msg in messages:
        raw = msg.fields.get(field)
        if raw is None:
            continue
        try:
            forecaster.observe(float(raw))
        except ValueError:
            continue
    return forecaster.forecast()
