"""Matrix multiplicative weights solver for equilibrium values.

The meta-algorithm maintains a density rho(t) proportional to
exp(-eps * sum of observed loss matrices) and enjoys the regret bound

    (1 - eps) * sum_t <rho(t), M(t)>  <=  <rho*, sum_t M(t)> + ln(N)/eps

for every density rho*, provided every loss matrix satisfies 0 <= M <= I.
Instantiated with the channel-pair difference map, the averaged per-round
value approximates the equilibrium value within delta after
T = ceil(16 ln N / delta^2) rounds at learning rate eps = delta/4; with
floating-point kernels the guarantee degrades by at most the slack budget
delta1 = delta/10 on each side (accounted as (1/2) T delta1 inside the
regret inequality).

T is a cap, not a schedule. Whatever the update rule, two weak-duality
certificates bound the equilibrium value after every round (Arora-Kale,
primal-dual MMW): the smallest best-response value seen so far from above,
and the smallest eigenvalue of the adjoint image of the averaged (or of the
best single) witness from below. Both are widened by the measured residuals
of the eigendecompositions they come from. ``solve_generic`` stops on the
first round at which this certified bracket is at most delta (times the
value bound) wide, runs all T rounds when it never is, and records which of
the two happened (``SolverTrace.stop_reason``: 'bracket' or 'rounds'; a run
cut short by ``max_rounds`` raises IterationCapError with reason 'cap').
The reported value is the upper certificate, which never exceeds the mean
of the per-round values. The certificates, not the a-priori guarantee, are
what callers report: they hold after any number of rounds, so a run cut
short by ``rounds`` gives a sound, possibly wider bracket.

The density space may be a tensor product X_1 (x) ... (x) X_K (dimensions
``dims``, N = prod dims) on which every loss is a Kronecker sum
M = sum_k I (x) M_k (x) I. Then the running sum S = sum_t M(t) is the
Kronecker sum of the per-factor sums S_k, and

    exp(-eps S) / tr exp(-eps S) = (x)_k exp(-eps S_k) / tr exp(-eps S_k),

so rho(t) is a product of K Gibbs states of the factor sizes and N x N
matrices are never formed inside the loop. The channel-pair game has this
form with K = 2 factors of size n (see ``reduction``); a dense game is the
one-factor case ``dims = (N,)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateViolation,
    IterationCapError,
    OracleBoundError,
    ValidationError,
)
from .linalg import EigDecomp, as_cmatrix, best_effect, herm_eig, hs_inner, kron_sum
from .reduction import ReducedInstance, difference_adjoint_factors, marginal_difference_output

#: Eigenvalue excursions of a loss matrix beyond [0, 1] up to this much are
#: clipped back into it; anything larger is a hard error.
CLIP_TOL = 1e-9


@dataclass(frozen=True)
class MMWConfig:
    """Solver configuration.

    ``delta`` is the target precision of the returned value; it fixes the
    learning rate eps = delta/4 and the slack budget delta1 = delta/10
    charged to approximate arithmetic. ``rounds`` defaults to
    ceil(16 ln N / delta^2); fewer rounds leave the certificates sound but
    possibly wider than delta. ``max_rounds`` is a safety cap.
    """

    delta: float = 0.2
    rounds: int | None = None
    max_rounds: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.delta <= 2.0:
            raise ValidationError(f"delta must lie in (0, 2], got {self.delta}")
        if self.rounds is not None and self.rounds < 1:
            raise ValidationError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_rounds < 1:
            raise ValidationError(f"max_rounds must be >= 1, got {self.max_rounds}")

    def resolved_epsilon(self) -> float:
        return self.delta / 4.0

    def resolved_delta1(self) -> float:
        return self.delta / 10.0

    def resolved_rounds(self, dim: int) -> int:
        """Rounds for an N-dimensional density space; at least one, since at
        N = 1 the single density's exact best response is the value."""
        if self.rounds is not None:
            return int(self.rounds)
        return max(1, int(math.ceil(16.0 * math.log(dim) / (self.delta * self.delta))))


#: Per-round series of a trace, as (SolverTrace field, key of the JSONL
#: ``iter`` record).
SERIES = (
    ("losses", "loss"),
    ("step_inners", "inner"),
    ("exp_min", "exp_min"),
    ("exp_max", "exp_max"),
    ("rho_trace_err", "rho_trace_err"),
    ("rho_min_eig", "rho_min_eig"),
    ("m_min_eig", "m_min_eig"),
    ("m_max_eig", "m_max_eig"),
    ("m_eig_err", "m_eig_err"),
    ("sum_min_eig", "sum_min_eig"),
    ("sum_eig_err", "sum_eig_err"),
)


@dataclass(eq=False)
class SolverTrace:
    """Per-round records of one solver run.

    The ``SERIES`` arrays are indexed by round (0-based for round t = 1).
    ``exp_min`` and ``exp_max`` are the extreme eigenvalues of the
    accumulated exponent -eps * sum of prior losses that produced rho(t);
    ``exponent_norm_bound`` is the a-priori operator-norm bound eps * T on
    that exponent. ``m_min_eig``/``m_max_eig`` are the extremes of the
    round's loss spectrum and ``sum_min_eig`` the smallest eigenvalue of the
    loss sum after the round; the ``*_err`` series bound the error of each
    from the measured eigendecomposition residuals. ``loss_sums`` holds the
    per-factor sums S_k of all losses, whose Kronecker sum is the N x N loss
    sum S. ``rounds`` is the planned T and ``stop_reason`` says why the loop
    ended: 'bracket' (the stop rule fired), 'rounds' (T reached) or 'cap'
    (``max_rounds`` reached first).
    """

    dim: int
    epsilon: float
    rounds: int
    delta: float
    delta1: float
    exponent_norm_bound: float
    losses: np.ndarray
    step_inners: np.ndarray
    exp_min: np.ndarray
    exp_max: np.ndarray
    rho_trace_err: np.ndarray
    rho_min_eig: np.ndarray
    m_min_eig: np.ndarray
    m_max_eig: np.ndarray
    m_eig_err: np.ndarray
    sum_min_eig: np.ndarray
    sum_eig_err: np.ndarray
    loss_sums: tuple
    stop_reason: str
    value: float | None = None

    @property
    def executed(self) -> int:
        return int(self.losses.shape[0])

    def __eq__(self, other):
        if not isinstance(other, SolverTrace):
            return NotImplemented
        scalars = ("dim", "epsilon", "rounds", "delta", "delta1",
                   "exponent_norm_bound", "stop_reason", "value")
        mine = [getattr(self, name) for name, _ in SERIES] + list(self.loss_sums)
        theirs = [getattr(other, name) for name, _ in SERIES] + list(other.loss_sums)
        return (all(getattr(self, k) == getattr(other, k) for k in scalars)
                and len(mine) == len(theirs)
                and all(np.array_equal(a, b) for a, b in zip(mine, theirs)))


def _gibbs_density(dec: EigDecomp, epsilon: float):
    """Density exp(-eps S) / tr exp(-eps S) from the eigendecomposition of S.

    The exponent is shifted by its largest eigenvalue before exponentiating;
    the shift cancels in the normalization, so the returned density is the
    exact mathematical value up to the eigendecomposition residual.
    """
    w = dec.eigenvalues  # descending
    gains = np.exp(-epsilon * (w - w[-1]))
    total = float(np.sum(gains))
    rho = (dec.eigenvectors * gains) @ dec.eigenvectors.conj().T / total
    rho = 0.5 * (rho + rho.conj().T)
    # Spectrum of rho is gains/total by construction.
    return rho, -epsilon * float(w[0]), -epsilon * float(w[-1]), float(gains[-1] / total)


def _factor_dims(dims) -> tuple[int, ...]:
    out = (int(dims),) if np.ndim(dims) == 0 else tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValidationError(f"factor dimensions must be >= 1, got {dims}")
    return out


def _as_factors(out) -> tuple:
    """A list or tuple holds Kronecker-sum factors; anything else is the
    single factor of a one-factor space."""
    return tuple(out) if isinstance(out, (list, tuple)) else (out,)


def _clip_loss(ms: list, low: float, high: float) -> list:
    """Bring a loss spectrum [low, high] that leaves [0, 1] by at most
    CLIP_TOL back inside, keeping the Kronecker-sum factor form."""
    # The spectrum of a Kronecker sum is all sums of factor eigenvalues, so
    # no per-factor clip caps it; the affine map of [min(low, 0), max(high, 1)]
    # onto [0, 1] does, and moves every factor by O(CLIP_TOL) at most.
    lo, hi = min(low, 0.0), max(high, 1.0)
    scale = 1.0 / (hi - lo)
    out = [m * scale for m in ms]
    out[0] = out[0] - (lo * scale) * np.eye(out[0].shape[0])
    return out


def mmw_run(loss_oracle, dims, cfg: MMWConfig | None = None, stop=None) -> SolverTrace:
    """Run the multiplicative weights loop on a product of density factors.

    ``dims`` is the tuple of factor dimensions (an int means one factor).
    ``loss_oracle`` is called with one density per factor, whose tensor
    product is rho(t), and returns the loss M with 0 <= M <= I as its
    Kronecker-sum factors, one matrix per factor (a bare matrix for one
    factor), optionally paired as ``(factors, loss_value)`` to attach a
    per-round scalar to the trace (defaults to <rho, M>). The loss spectrum,
    whose extremes are the sums of the factor extremes, is checked each
    round: excursions beyond [0, 1] within CLIP_TOL are clipped, larger ones
    raise OracleBoundError.

    ``stop``, if given, is called as ``stop(t, record)`` after round t with
    that round's record (SERIES field -> value) and ends the run when it
    returns True (stop reason 'bracket'). Otherwise the loop runs the planned
    T rounds; if the accuracy formula asks for more rounds than
    ``max_rounds``, it runs to the cap and raises IterationCapError carrying
    the partial trace.
    """
    cfg = MMWConfig() if cfg is None else cfg
    dims = _factor_dims(dims)
    dim = math.prod(dims)
    eps = cfg.resolved_epsilon()
    planned = cfg.resolved_rounds(dim)
    reason = "rounds" if planned <= cfg.max_rounds else "cap"

    records = {name: [] for name, _ in SERIES}
    sums = [np.zeros((d, d), dtype=np.complex128) for d in dims]
    # Each round's loss-sum decompositions feed the stop rule and the next
    # round's Gibbs densities. The zero sums' exact decomposition makes
    # rho(1) = I/d per factor.
    decs = [EigDecomp(np.zeros(d), np.eye(d, dtype=np.complex128), 0.0, 0.0) for d in dims]

    for t in range(1, min(planned, cfg.max_rounds) + 1):
        gibbs = [_gibbs_density(dec, eps) for dec in decs]
        rhos = [g[0] for g in gibbs]
        traces = [float(np.trace(r).real) for r in rhos]
        row = {
            "exp_min": sum(g[1] for g in gibbs),
            "exp_max": sum(g[2] for g in gibbs),
            "rho_trace_err": abs(math.prod(traces) - 1.0),
            "rho_min_eig": math.prod(g[3] for g in gibbs),
        }

        out = loss_oracle(*rhos)
        paired = isinstance(out, tuple) and len(out) == 2 and np.ndim(out[1]) == 0
        factors, loss = out if paired else (out, None)
        ms = [as_cmatrix(f) for f in _as_factors(factors)]
        if [m.shape for m in ms] != [(d, d) for d in dims]:
            raise OracleBoundError(
                f"oracle returned factor shapes {[m.shape for m in ms]}, expected "
                f"{[(d, d) for d in dims]}"
            )
        spectra = [herm_eig(m) for m in ms]
        high = sum(float(dec.eigenvalues[0]) for dec in spectra)
        low = sum(float(dec.eigenvalues[-1]) for dec in spectra)
        if low < -CLIP_TOL or high > 1.0 + CLIP_TOL:
            raise OracleBoundError(
                f"loss matrix eigenvalues [{low:.3e}, {high:.3e}] violate "
                f"[0, 1] beyond the clip tolerance {CLIP_TOL:.1e}"
            )
        row["m_min_eig"], row["m_max_eig"] = low, high
        row["m_eig_err"] = sum(dec.error_bound for dec in spectra)
        if low < 0.0 or high > 1.0:
            ms = _clip_loss(ms, low, high)
        # <(x)_j rho_j, sum_k I (x) M_k (x) I> = sum_k <rho_k, M_k> prod_{j != k} tr rho_j
        inner = sum(
            float(np.vdot(r, m).real) * math.prod(traces[:k] + traces[k + 1:])
            for k, (r, m) in enumerate(zip(rhos, ms))
        )
        row["step_inners"] = inner
        row["losses"] = inner if loss is None else float(loss)

        for k, m in enumerate(ms):
            s = sums[k] + m
            sums[k] = 0.5 * (s + s.conj().T)
        decs = [herm_eig(s) for s in sums]
        # lambda_min of a Kronecker sum is the sum of the factors' lambda_min.
        row["sum_min_eig"] = sum(float(dec.eigenvalues[-1]) for dec in decs)
        row["sum_eig_err"] = sum(dec.error_bound for dec in decs)

        for name, values in records.items():
            values.append(row[name])
        if stop is not None and stop(t, row):
            reason = "bracket"
            break

    trace = SolverTrace(
        dim=dim,
        epsilon=eps,
        rounds=planned,
        delta=cfg.delta,
        delta1=cfg.resolved_delta1(),
        exponent_norm_bound=eps * planned,
        loss_sums=tuple(sums),
        stop_reason=reason,
        **{name: np.asarray(values, dtype=np.float64) for name, values in records.items()},
    )
    if reason == "cap":
        raise IterationCapError(
            f"accuracy formula asks for {planned} rounds but max_rounds is "
            f"{cfg.max_rounds}; partial trace attached",
            trace=trace,
        )
    return trace


def regret_check(trace: SolverTrace, rho_star=None, delta1: float | None = None) -> float:
    """Slack of the regret inequality for a completed trace.

    Returns ``<rho*, sum M> + ln(N)/eps + (1/2) T delta1 - (1-eps) sum <rho(t), M(t)>``,
    which must be nonnegative (within roundoff) whenever the inequality
    holds. ``rho_star`` defaults to the adversarial choice, a minimum
    eigenvector of the accumulated loss sum S, for which <rho*, S> is
    lambda_min(S), the last round's ``sum_min_eig``. An explicit N x N
    ``rho_star`` is paired with S, built for it as the Kronecker sum of
    ``loss_sums``. Pass
    ``delta1=0`` to check the exact-arithmetic form of the bound.
    """
    if rho_star is None:
        comparator = float(trace.sum_min_eig[-1])
    else:
        star, loss_sum = as_cmatrix(rho_star), kron_sum(trace.loss_sums)
        if star.shape != loss_sum.shape:
            raise ValidationError(
                f"rho_star shape {star.shape} does not match dimension {trace.dim}"
            )
        comparator = float(hs_inner(star, loss_sum).real)
    slack_budget = trace.delta1 if delta1 is None else delta1
    t = trace.executed
    lhs = (1.0 - trace.epsilon) * float(np.sum(trace.step_inners))
    rhs = comparator + math.log(trace.dim) / trace.epsilon + 0.5 * t * slack_budget
    return rhs - lhs


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Certified bracket [lower_cert, upper_cert] on an equilibrium value.

    ``lower_cert`` is the minimum eigenvalue of the adjoint image of the
    averaged (or best single-round) witness, a weak-duality lower bound on
    the equilibrium value; ``upper_cert`` is the smallest per-round value,
    an upper bound since every round plays an exact best response. Both are
    widened by the measured eigendecomposition error, whose total is
    ``widening``. ``value`` is ``upper_cert``. The certificates are checked
    against each other at construction.
    """

    value: float
    lower_cert: float
    upper_cert: float
    iterations: int
    trace: SolverTrace
    widening: float
    bound: float = 1.0

    def __post_init__(self):
        fuzz = 1e-9 * max(1.0, self.bound)
        slack = 2.0 * self.trace.delta1 * self.bound + fuzz
        if self.lower_cert > self.upper_cert + slack:
            raise CertificateViolation(
                f"certificates crossed: lower {self.lower_cert} > upper "
                f"{self.upper_cert} + {slack}"
            )
        width = self.trace.delta * self.bound + fuzz
        if not (self.lower_cert - width <= self.value <= self.upper_cert + width):
            raise CertificateViolation(
                f"value {self.value} outside certificate window "
                f"[{self.lower_cert - width}, {self.upper_cert + width}]"
            )


def solve_generic(
    dims,
    apply_op,
    adjoint_op,
    argmax_op,
    bound: float,
    cfg: MMWConfig | None = None,
    loss_range: tuple[float, float] | None = None,
) -> EquilibriumResult:
    """Equilibrium value of min over densities, max over a convex witness
    set, of ``<witness, apply_op(rho)>``.

    ``dims`` are the density factor dimensions (an int means one factor);
    ``apply_op`` is called with one density per factor and must depend on
    rho only through them. ``adjoint_op`` returns the adjoint image of a
    witness as its Kronecker-sum factors (a bare matrix for one factor).
    ``argmax_op`` must return the exact maximizing witness for a given value
    operator, or a pair ``(witness, err)`` whose ``err`` bounds how far the
    witness's value may fall short of the maximum; the round's value is
    rounded up by it. ``bound`` bounds ``|<witness, apply_op(rho)>|`` over
    all inputs (spot-checked every round; the accuracy guarantee scales with
    it).

    The run stops on the first round at which the certified bracket is at
    most ``delta * bound`` wide, and otherwise after the planned T rounds.
    """
    cfg = MMWConfig() if cfg is None else cfg
    if bound <= 0:
        raise ValidationError(f"value bound must be positive, got {bound}")
    eye = np.eye(_factor_dims(dims)[0], dtype=np.complex128)
    state = {"witness_sum": None, "errs": []}

    def oracle(*rhos):
        value_op = apply_op(*rhos)
        out = argmax_op(value_op)
        witness, err = out if isinstance(out, tuple) else (out, 0.0)
        loss = float(hs_inner(witness, value_op).real)
        if abs(loss) > bound * (1.0 + CLIP_TOL) + CLIP_TOL:
            raise OracleBoundError(
                f"round value {loss} exceeds the declared bound {bound}"
            )
        if loss_range is not None and not (
            loss_range[0] - CLIP_TOL <= loss <= loss_range[1] + CLIP_TOL
        ):
            raise OracleBoundError(
                f"round value {loss} outside promised range {loss_range}"
            )
        image = _as_factors(adjoint_op(witness))
        # M = (I + image / bound) / 2, with the identity carried by factor 0.
        m = [0.5 * (image[0] / bound + eye)] + [0.5 * (f / bound) for f in image[1:]]
        if state["witness_sum"] is None:
            state["witness_sum"] = np.array(witness, dtype=np.complex128)
        else:
            state["witness_sum"] += witness
        state["errs"].append(err)
        return m, loss + err

    # lambda_min of each round's adjoint image, recovered from the recorded
    # loss-matrix spectrum: image = bound * (2 M - I).
    def single_lower(m_min_eig, m_eig_err):
        return bound * (2.0 * (m_min_eig - m_eig_err) - 1.0)

    running = {"upper": math.inf, "single": -math.inf}

    def bracket_closed(t, row):
        running["upper"] = min(running["upper"], row["losses"])
        running["single"] = max(running["single"],
                                single_lower(row["m_min_eig"], row["m_eig_err"]))
        # The averaged witness's image is bound * (2 S / t - I), S the loss sum.
        averaged = bound * (2.0 * (row["sum_min_eig"] - row["sum_eig_err"]) / t - 1.0)
        return running["upper"] - max(running["single"], averaged) <= cfg.delta * bound

    trace = mmw_run(oracle, dims, cfg, stop=bracket_closed)

    decs = [herm_eig(f) for f in
            _as_factors(adjoint_op(state["witness_sum"] / trace.executed))]
    avg_err = sum(dec.error_bound for dec in decs)
    lower_avg = sum(float(dec.eigenvalues[-1]) for dec in decs) - avg_err
    singles = single_lower(trace.m_min_eig, trace.m_eig_err)
    top = int(np.argmax(singles))
    if lower_avg >= singles[top]:
        lower, lower_err = lower_avg, avg_err
    else:
        lower, lower_err = float(singles[top]), 2.0 * bound * float(trace.m_eig_err[top])
    low = int(np.argmin(trace.losses))
    upper = float(trace.losses[low])
    trace.value = upper
    return EquilibriumResult(
        value=upper,
        lower_cert=lower,
        upper_cert=upper,
        iterations=trace.executed,
        trace=trace,
        bound=bound,
        widening=lower_err + state["errs"][low],
    )


def solve_equilibrium(inst: ReducedInstance, cfg: MMWConfig | None = None) -> EquilibriumResult:
    """Equilibrium value of a reduced channel-pair instance.

    Each loss is (I + G+ (x) I - I (x) G-) / 2, a Kronecker sum, so the
    solver's density on X0 (x) X1 stays a product rho_0 (x) rho_1 and the
    loop runs on two n x n factors. Each round plays the positive-eigenspace
    projector of the difference output (the exact best response, with its
    measured error) and feeds back the shifted adjoint image as the loss.
    The certified bracket lies in [0, 1] up to roundoff.
    """
    n = inst.input_dim
    return solve_generic(
        (n, n),
        lambda first, second: marginal_difference_output(inst, first, second),
        lambda witness: difference_adjoint_factors(inst, witness),
        best_effect,
        1.0,
        cfg,
        loss_range=(0.0, 1.0),
    )
