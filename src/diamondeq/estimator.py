"""Turn equilibrium values into answers: rigorous diamond-norm intervals
and promise decisions.

Both rest on the solver's certified bracket [lower_cert, upper_cert] on the
equilibrium value and on nothing else: the weak-duality certificates hold
after any number of rounds, whereas the a-priori guarantee around the mean
per-round value holds only at the formula's T. The Fuchs-van de Graaf
inequalities map the bracket to the reported interval on the diamond
distance D (``_fvdg_interval``) and a promise on D to value thresholds
(``promise_thresholds``). A promise (a, b) is decided on the interval:
'far' when it lies above b, 'close' when it lies below a. Refusals raise
GapTooSmallError: before solving, when the threshold gap does not exceed
twice the solver slack (delta + delta1); after, when the interval reaches
both sides. (The amplification that could shrink any gap is out of scope.)

Every answer takes three steps: ``require_gap``, ``mmw.solve_equilibrium``
and ``build_report``. ``solve_and_report`` is the one wrapper; the CLI calls
the steps itself to write the trace before the report. A report keeps the
solver result (``report.result``) and adds only the interval and decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GapTooSmallError, ValidationError
from .mmw import EquilibriumResult, MMWConfig, solve_equilibrium
from .reduction import ReducedInstance


@dataclass(frozen=True)
class DiamondReport:
    """Decision and/or interval for the diamond distance of a channel pair.

    ``result`` is the solver run the report rests on; its certified bracket,
    round count and per-round records are read from there. ``interval`` always contains
    the true diamond distance given the certificates. ``decision`` ('far' or
    'close'), ``promise`` and its ``thresholds`` (t_far, t_close) are set
    only when a promise (a, b) was supplied.
    """

    result: EquilibriumResult
    interval: tuple[float, float]
    decision: str | None = None
    promise: tuple[float, float] | None = None
    thresholds: tuple[float, float] | None = None


def _fvdg_interval(v_lo: float, v_hi: float) -> tuple[float, float]:
    """Diamond distances allowed by an equilibrium value in [v_lo, v_hi],
    both clamped to [0, 1]: [2 (1 - v_hi), 2 sqrt(1 - v_lo^2)] within [0, 2]."""
    v_lo = min(1.0, max(0.0, v_lo))
    v_hi = min(1.0, max(0.0, v_hi))
    return 2.0 * (1.0 - v_hi), 2.0 * math.sqrt(1.0 - v_lo * v_lo)


def promise_thresholds(a: float, b: float) -> tuple[float, float]:
    """Equilibrium-value thresholds implied by a distinguishability promise.

    For diamond distance >= a the equilibrium value is at most
    sqrt(4 - a^2)/2; for distance <= b it is at least (2 - b)/2. Returns
    (upper_when_far, lower_when_close).
    """
    if not (0.0 <= b < a <= 2.0):
        raise ValidationError(f"promise must satisfy 0 <= b < a <= 2, got a={a}, b={b}")
    return math.sqrt(4.0 - a * a) / 2.0, (2.0 - b) / 2.0


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


def build_report(result: EquilibriumResult,
                 promise: tuple[float, float] | None = None) -> DiamondReport:
    """The report of a solver result: the interval of its certified bracket
    and, with a promise (a, b), the side that interval certifies: 'far' when
    its lower end exceeds b, else 'close' when its upper end lies below a.
    An interval that reaches both sides is refused."""
    # Certificates that cross (within the slack EquilibriumResult checks)
    # pin the value at the upper one.
    interval = _fvdg_interval(min(result.lower_cert, result.upper_cert), result.upper_cert)
    decision = thresholds = None
    if promise is not None:
        thresholds = promise_thresholds(*promise)
        a, b = promise = (float(promise[0]), float(promise[1]))
        if interval[0] > b:
            decision = "far"
        elif interval[1] < a:
            decision = "close"
        else:
            raise GapTooSmallError(
                f"interval [{interval[0]:.4f}, {interval[1]:.4f}] after {result.iterations} rounds "
                f"reaches both b = {b:.4f} and a = {a:.4f}: neither side of the promise is certified"
            )
    return DiamondReport(
        result=result,
        interval=interval,
        decision=decision,
        promise=promise,
        thresholds=thresholds,
    )


def solve_and_report(
    inst: ReducedInstance,
    cfg: MMWConfig | None = None,
    promise: tuple[float, float] | None = None,
) -> DiamondReport:
    """Solve an instance and build its report; the solver result, with its
    per-round records, is ``report.result``.

    With a promise (a, b), ``require_gap`` checks the threshold gap before
    any solver work and ``build_report`` decides on the interval.
    """
    cfg = MMWConfig() if cfg is None else cfg
    require_gap(promise, cfg)
    return build_report(solve_equilibrium(inst, cfg), promise)
