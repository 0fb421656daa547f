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
bracket closed to delta certifies a side; a run cut short by ``rounds`` whose
bracket still reaches both thresholds refuses instead. Refusals raise
GapTooSmallError (the amplification machinery that could shrink arbitrary
gaps is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import ChannelSpec, normalize
from .errors import GapTooSmallError, ValidationError
from .mmw import EquilibriumResult, MMWConfig, solve_equilibrium
from .reduction import ReducedInstance, build_instance, promise_thresholds

_FUZZ = 1e-9


@dataclass(frozen=True)
class DiamondReport:
    """Decision and/or interval for the diamond distance of a channel pair.

    ``interval`` always contains the true diamond distance given the
    certificates; ``decision`` ('far' or 'close') is present only when a
    promise (a, b) was supplied. ``widening`` is the measured
    eigendecomposition error added to the certificates, and ``stop_reason``
    says whether the bracket closed ('bracket') or all T rounds ran
    ('rounds').
    """

    value: float
    delta: float
    delta1: float
    interval: tuple[float, float]
    lower_cert: float
    upper_cert: float
    iterations: int
    decision: str | None = None
    promise: tuple[float, float] | None = None
    thresholds: tuple[float, float] | None = None
    widening: float = 0.0
    stop_reason: str | None = None

    def __post_init__(self):
        lo, hi = self.interval
        if not (0.0 <= lo <= hi <= 2.0):
            raise ValidationError(f"interval [{lo}, {hi}] must be ordered inside [0, 2]")
        if (self.decision is None) != (self.promise is None):
            raise ValidationError("decision and promise must be supplied together")
        if self.decision is not None and self.decision not in ("far", "close"):
            raise ValidationError(f"decision must be 'far' or 'close', got {self.decision!r}")
        if self.stop_reason not in (None, "bracket", "rounds"):
            raise ValidationError(
                f"stop_reason must be 'bracket' or 'rounds', got {self.stop_reason!r}"
            )


def _fvdg_interval(v_lo: float, v_hi: float) -> tuple[float, float]:
    """Diamond distances allowed by an equilibrium value in [v_lo, v_hi]:
    [2 (1 - v_hi), 2 sqrt(1 - v_lo^2)], with both ends clamped to [0, 1]."""
    v_lo = min(1.0, max(0.0, v_lo))
    v_hi = min(1.0, max(0.0, v_hi))
    lo = max(0.0, 2.0 * (1.0 - v_hi))
    hi = min(2.0, 2.0 * math.sqrt(max(0.0, 1.0 - v_lo * v_lo)))
    return lo, hi


def diamond_interval(value: float, delta_total: float) -> tuple[float, float]:
    """Interval for the diamond distance from an equilibrium value known to
    precision ``delta_total``.

    With v- = max(0, value - delta_total) and v+ = min(1, value + delta_total),
    the distance lies in [2 (1 - v+), 2 sqrt(1 - v-^2)].
    """
    if delta_total < 0:
        raise ValidationError(f"delta_total must be nonnegative, got {delta_total}")
    if not -delta_total - _FUZZ <= value <= 1.0 + delta_total + _FUZZ:
        raise ValidationError(
            f"value {value} outside the plausible range [-{delta_total}, 1 + {delta_total}]"
        )
    v = min(1.0, max(0.0, value))
    return _fvdg_interval(v - delta_total, v + delta_total)


def _require_gap(t_far: float, t_close: float, delta_total: float) -> None:
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


def _report(result: EquilibriumResult, cfg: MMWConfig, decision=None,
            promise=None, thresholds=None) -> DiamondReport:
    return DiamondReport(
        value=result.value,
        delta=cfg.delta,
        delta1=cfg.resolved_delta1(),
        # Certificates that cross (within the slack EquilibriumResult
        # checks) pin the value at the upper one.
        interval=_fvdg_interval(min(result.lower_cert, result.upper_cert),
                                result.upper_cert),
        lower_cert=result.lower_cert,
        upper_cert=result.upper_cert,
        iterations=result.iterations,
        decision=decision,
        promise=promise,
        thresholds=thresholds,
        widening=result.widening,
        stop_reason=result.trace.stop_reason,
    )


def solve_and_report(
    inst: ReducedInstance,
    cfg: MMWConfig | None = None,
    promise: tuple[float, float] | None = None,
) -> tuple[DiamondReport, EquilibriumResult]:
    """Solve an instance and build its report; the solver result (with the
    full trace) rides along for callers that want it.

    With a promise (a, b), the threshold gap is checked before any solver
    work and the report carries the decision the certified bracket
    supports; a bracket that reaches both thresholds is refused.
    """
    cfg = MMWConfig() if cfg is None else cfg
    thresholds = None
    if promise is not None:
        a, b = promise
        thresholds = promise_thresholds(a, b)
        _require_gap(thresholds[0], thresholds[1], cfg.delta + cfg.resolved_delta1())
    result = solve_equilibrium(inst, cfg)
    decision = None
    if promise is not None:
        decision = _decide(result, *thresholds)
        promise = (float(promise[0]), float(promise[1]))
    report = _report(result, cfg, decision=decision, promise=promise,
                     thresholds=thresholds)
    return report, result


def equilibrium_report(inst: ReducedInstance, cfg: MMWConfig | None = None) -> DiamondReport:
    """Solve an instance and report the value with its unconditional interval."""
    return solve_and_report(inst, cfg)[0]


def decide_qcd(inst: ReducedInstance, a: float, b: float,
               cfg: MMWConfig | None = None) -> DiamondReport:
    """Decide a distinguishability promise on a reduced instance.

    Under the promise that the diamond distance is either >= a ('far') or
    <= b ('close'), the certified bracket on the equilibrium value lies on
    one side of the threshold gap; the decision names that side.
    Raises GapTooSmallError when the thresholds are not separated well
    enough for the configured precision, or when the bracket of a run cut
    short by ``rounds`` still reaches both thresholds.
    """
    return solve_and_report(inst, cfg, promise=(a, b))[0]


def pdn_decide(spec0: ChannelSpec, spec1: ChannelSpec, a: float, b: float,
               cfg: MMWConfig | None = None) -> DiamondReport:
    """Decide a diamond-norm promise directly from two channel descriptions.

    Refuses with GapTooSmallError exactly where ``decide_qcd`` does, never
    guesses. The paper's condition a^2 - (4b - b^2) > 8 (delta + delta1)
    (t_close + t_far) needs no check of its own: since a^2 - (4b - b^2) =
    4 (t_close - t_far)(t_close + t_far) and t_close + t_far > 0, it is the
    threshold-gap condition t_close - t_far > 2 (delta + delta1).
    """
    return decide_qcd(build_instance(normalize(spec0), normalize(spec1)), a, b, cfg)
