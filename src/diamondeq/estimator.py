"""Turn equilibrium values into answers: promise decisions and rigorous
diamond-norm intervals.

Both rest on the solver's certified bracket [lower_cert, upper_cert] on the
equilibrium value and on nothing else: the weak-duality certificates hold
after any number of rounds, whereas the a-priori guarantee around the mean
per-round value holds only at the formula's T. Intervals are the
Fuchs-van de Graaf image of the bracket. A promise decision names the side
of the threshold gap the bracket certifies: 'far' when upper_cert lies below
t_close, 'close' when lower_cert lies above t_far. It is only attempted when
the threshold gap exceeds twice the total solver slack (delta + delta1), so a
bracket closed to delta certifies a side; a run that uses up its round limit
T with a bracket that still reaches both thresholds refuses instead.
Refusals raise GapTooSmallError (the amplification machinery that could
shrink arbitrary gaps is out of scope).

Every answer takes three steps: ``require_gap``, ``mmw.solve_equilibrium``
and ``build_report``. ``solve_and_report`` is the one wrapper; the CLI calls
the steps itself to write the trace before the report. A report keeps the
solver result (``report.result``) and adds only the interval and decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GapTooSmallError
from .mmw import EquilibriumResult, MMWConfig, solve_equilibrium
from .reduction import ReducedInstance, promise_thresholds


@dataclass(frozen=True)
class DiamondReport:
    """Decision and/or interval for the diamond distance of a channel pair.

    ``result`` is the solver run the report rests on; its certified bracket,
    round count and trace are read from there. ``interval`` always contains
    the true diamond distance given the certificates; ``decision`` ('far' or
    'close') is present only when a promise (a, b) was supplied, together
    with the promise and its ``thresholds`` (t_far, t_close).
    """

    result: EquilibriumResult
    interval: tuple[float, float]
    decision: str | None = None
    promise: tuple[float, float] | None = None
    thresholds: tuple[float, float] | None = None


def _fvdg_interval(v_lo: float, v_hi: float) -> tuple[float, float]:
    """Diamond distances allowed by an equilibrium value in [v_lo, v_hi]:
    [2 (1 - v_hi), 2 sqrt(1 - v_lo^2)], with both ends clamped to [0, 1]."""
    v_lo = min(1.0, max(0.0, v_lo))
    v_hi = min(1.0, max(0.0, v_hi))
    lo = max(0.0, 2.0 * (1.0 - v_hi))
    hi = min(2.0, 2.0 * math.sqrt(max(0.0, 1.0 - v_lo * v_lo)))
    return lo, hi


def require_gap(promise: tuple[float, float] | None, cfg: MMWConfig) -> None:
    """Refuse a promise (a, b) before any solver work when its threshold gap
    does not exceed twice the total solver slack (delta + delta1); no
    promise passes. This is the paper's condition a^2 - (4b - b^2) >
    8 (delta + delta1)(t_close + t_far), because a^2 - (4b - b^2) =
    4 (t_close - t_far)(t_close + t_far) and t_close + t_far > 0.
    """
    if promise is None:
        return
    t_far, t_close = promise_thresholds(*promise)
    delta_total = cfg.delta + cfg.resolved_delta1()
    gap = t_close - t_far
    if gap <= 2.0 * delta_total:
        raise GapTooSmallError(
            f"threshold gap {gap:.4f} (thresholds {t_far:.4f}/{t_close:.4f}) does not "
            f"exceed twice the solver slack {delta_total:.4f}: gap too small for a "
            "direct decision; the amplification pipeline that handles such promises "
            "is out of scope"
        )


def _decide(result: EquilibriumResult, t_far: float, t_close: float) -> str:
    """The side of the threshold gap the certified bracket lies on.

    The value is at most upper_cert, so below t_close it is not 'close';
    it is at least lower_cert, so above t_far it is not 'far'. A bracket
    reaching both thresholds certifies neither side.
    """
    if result.upper_cert < t_close:
        return "far"
    if result.lower_cert > t_far:
        return "close"
    raise GapTooSmallError(
        f"certified bracket [{result.lower_cert:.4f}, {result.upper_cert:.4f}] "
        f"after {result.iterations} rounds reaches both thresholds "
        f"{t_far:.4f}/{t_close:.4f}: neither side of the promise is certified; "
        "more rounds would narrow the bracket"
    )


def build_report(result: EquilibriumResult,
                 promise: tuple[float, float] | None = None) -> DiamondReport:
    """The report of a solver result: the interval of its certified bracket
    and, with a promise (a, b), the side of the threshold gap the bracket
    certifies. A bracket that reaches both thresholds is refused."""
    decision = thresholds = None
    if promise is not None:
        thresholds = promise_thresholds(*promise)
        decision = _decide(result, *thresholds)
        promise = (float(promise[0]), float(promise[1]))
    return DiamondReport(
        result=result,
        # Certificates that cross (within the slack EquilibriumResult
        # checks) pin the value at the upper one.
        interval=_fvdg_interval(min(result.lower_cert, result.upper_cert),
                                result.upper_cert),
        decision=decision,
        promise=promise,
        thresholds=thresholds,
    )


def solve_and_report(
    inst: ReducedInstance,
    cfg: MMWConfig | None = None,
    promise: tuple[float, float] | None = None,
) -> DiamondReport:
    """Solve an instance and build its report; the solver result, with the
    full trace, is ``report.result``.

    With a promise (a, b), the threshold gap is checked before any solver
    work and the report carries the decision the certified bracket
    supports; a bracket that reaches both thresholds is refused.
    """
    cfg = MMWConfig() if cfg is None else cfg
    require_gap(promise, cfg)
    return build_report(solve_equilibrium(inst, cfg), promise)
