"""Matrix multiplicative weights solver for equilibrium values.

The meta-algorithm maintains a density rho(t) proportional to
exp(-eta_t S(t-1)), S(t) the sum of the first t loss matrices, with the
anytime learning rate

    eta_t = min(1/2, sqrt(8 ln N / t))        (``learning_rate``)

(Cesa-Bianchi and Lugosi, Prediction, Learning, and Games, Thm 2.3). For
losses whose spectra lie in [-c_t, 1 + c_t] it enjoys, after any number T of
rounds, the regret bound

    sum_t <rho(t), M(t)>  <=  lambda_min(S(T)) + ln(N)/eta_T + sum_t eta_t (1 + 2 c_t)^2/8.

Proof. Let F(eta, S) = -(1/eta) ln(tr exp(-eta S) / N). Golden-Thompson,
tr exp(A + B) <= tr(exp(A) exp(B)), gives tr exp(-eta_t S(t)) /
tr exp(-eta_t S(t-1)) <= <rho(t), exp(-eta_t M(t))>, and Hoeffding's lemma,
applied to the distribution that rho(t) puts on the spectrum of M(t) in
[-c_t, 1 + c_t], an interval of width 1 + 2 c_t, bounds its logarithm by
-eta_t <rho(t), M(t)> + eta_t^2 (1 + 2 c_t)^2/8. So <rho(t), M(t)> <=
F(eta_t, S(t)) - F(eta_t, S(t-1)) + eta_t (1 + 2 c_t)^2/8. F depends only on
the spectrum of S and is nonincreasing in eta (-eta F is convex in eta and
vanishes at 0, so F is minus a secant slope), and eta_t is nonincreasing in
t, so F(eta_t, S(t)) <= F(eta_{t+1}, S(t)) and the sum telescopes to
F(eta_T, S(T)) - F(eta_1, 0) = F(eta_T, S(T)) <= lambda_min(S(T)) +
ln(N)/eta_T. The bound implies Cesa-Bianchi and Lugosi's
(2/eta_{T+1} - 1/eta_1) ln N form, since 1/eta_T + 1/eta_1 <= 2/eta_{T+1}.
The loop feeds every loss back as computed; its spectrum may leave [0, 1]
by roundoff, so c_t <= LOSS_TOL, and a larger excursion is an error.

Closure. Each round plays an exact best response W(t) to rho(t), of value
v(t) = <rho(t), A(W(t))> for the adjoint A, and feeds back the loss
M(t) = (I + A(W(t))/bound)/2, so <rho(t), M(t)> = (1 + v(t)/bound)/2. The
bracket's upper end, min_t v(t), is at most the mean of the v(t); its lower
end is at least lambda_min(A(mean_t W(t))) = bound (2 lambda_min(S(T))/T - 1)
(a proven floor on the value only raises it). Their difference is at most
2 bound/T times the regret, so by the bound above, with sum_t eta_t/8 <=
sqrt(T ln N / 2) and ln(N)/eta_T = sqrt(T ln N / 8) once T >= 32 ln N,

    width(T) <= (3/sqrt 2) bound sqrt(ln N / T) <= 2 bound sqrt(2 ln N / T),

up to the factor (1 + 2 c_t)^2 <= (1 + 2e-9)^2 on the sum_t eta_t/8 term.
At T = ceil(16 ln N / delta^2), where sqrt(ln N / T) <= delta/4, that is
at most 0.54 delta bound for delta^2 <= 1/2. For larger delta the cap
eta = 1/2 can bind; then ln(N)/eta_T <= 2 ln N <= T delta^2/8, and the
width is at most (delta/4 + 0.36) delta bound <= 0.86 delta bound. Both lie
below the stop threshold delta bound, up to the measured widening, and the
factor (1 + 2e-9)^2 leaves both constants as stated. So a run to the
formula's T closes its bracket as the paper's fixed rate eps = delta/4
does, and the larger early steps close it sooner. Upper candidates (below)
only lower the upper end and leave the update, the regret bound and the
lower end as they are, so they can only close the bracket sooner.

Upper candidates. By weak duality the value max_E <E, A*(sigma)> of any
density sigma bounds the equilibrium value from above, and the MMW
densities lag behind on hard pairs. So a round that leaves the bracket open
(upper - lower > delta bound) takes one Kelley cutting-plane step of
Frank-Wolfe on the convex function sigma -> max_E <E, A*(sigma)>: it
evaluates the min player's best response rho_b to the round's loss, the
uniform density on the eigenvectors of M(t) within (upper - lower)/(2 bound)
of lambda_min(M(t)) (read off the loss decomposition the round already has),
when the round's witness says the value falls toward it, and then the point
of the segment from rho(t) to rho_b where the two witnesses' tangent lines
cross (``_upper_candidates``; Arora-Kale and Freund-Schapire use best
responses on both sides). Each value is rounded up by its best-response
error and explicit rounding bounds, and the smallest value seen is the
upper end.
``solve_generic`` is the one loop, for any game given by its value
operator, adjoint and best response; ``solve_equilibrium`` is the
channel-pair instance.

T is the run's only limit, not a schedule: ``MMWConfig.rounds`` when set,
else the formula clamped to MAX_ROUNDS. Whatever the update rule, two
weak-duality certificates bound the equilibrium value after every round
(Arora-Kale, primal-dual MMW): the smallest best-response value seen so far,
at a round's density or at an upper candidate, from above, and the smallest
eigenvalue of the adjoint image of the averaged (or of the best single)
witness from below. The averaged witness's image is
read off the loss sum S(t): it is bound (2 S(t)/t - I), so its smallest
eigenvalue is bound (2 lambda_min(S(t))/t - 1). Both certificates are
widened by the measured residuals of the eigendecompositions they come
from and by a bound on the rounding that separates the computed loss, or
the computed S(t), from the exact one (``solve_generic``). A caller that
proves every round value lies in ``loss_range`` also proves the value is
at least its lower end, a third lower certificate that needs no round (the
channel-pair game's 0: the zero effect is feasible and has value 0).
``solve_generic`` stops on the first round at which this
certified bracket is at most delta (times the value bound) wide, runs all T
rounds when it never is, and records which of the two happened
(``EquilibriumResult.stop_reason``: 'bracket' or 'rounds').
Its ``EquilibriumResult`` is the one record of the run: the bracket, the
run's facts and one ``iters`` row per round. The value is the upper
certificate, which never exceeds the mean of the per-round values, and the
round count is the number of rows. The certificates,
not the a-priori guarantee, are what callers report: they hold after any
number of rounds, so a run that uses up a T below the formula's gives a
sound, possibly wider bracket.

The density space may be a tensor product X_1 (x) ... (x) X_K (dimensions
``dims``, N = prod dims) on which every loss is a Kronecker sum
M = sum_k I (x) M_k (x) I. Then the running sum S = sum_t M(t) is the
Kronecker sum of the per-factor sums S_k, and

    exp(-eta S) / tr exp(-eta S) = (x)_k exp(-eta S_k) / tr exp(-eta S_k),

so rho(t) is a product of K Gibbs states of the factor sizes and N x N
matrices are never formed inside the loop; a dense game is the one-factor
case ``dims = (N,)``. The channel-pair game needs one factor of size n: its
value f(sigma_0, sigma_1) on the two input marginals is jointly convex, and
symmetric since the flag sign Z = diag(I_z, -I_z) maps S+ to S- (see
``reduction``), so its minimum lies at sigma_0 = sigma_1 = sigma and
``solve_equilibrium`` plays one density as both marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateViolation, OracleBoundError, ValidationError
from .linalg import EigDecomp, best_effect, herm_eig, require_hermitian
from .reduction import ReducedInstance, difference_adjoint_factors, marginal_difference_output

#: Eigenvalue excursions of a loss matrix beyond [0, 1] up to this much are
#: roundoff and fed back as they are; anything larger is a hard error.
LOSS_TOL = 1e-9

#: Unit roundoff u of float64 arithmetic: a rounded operation's result is
#: within u of the exact one, relative to the result.
UNIT_ROUNDOFF = 2.0 ** -53

#: Largest round count T of one run: ``rounds`` may not exceed it, and the
#: formula's T is clamped to it.
MAX_ROUNDS = 1_000_000


@dataclass(frozen=True)
class MMWConfig:
    """Solver configuration.

    ``delta`` is the target precision of the returned value; it fixes
    delta1 = delta/10, whose one reader is ``estimator.require_gap``'s
    threshold margin (floating-point error is counted in the bracket's
    ``widening``, not in delta1). The learning rate is ``learning_rate``'s,
    whatever the configuration.
    ``rounds``, the round limit T, lies in [1, MAX_ROUNDS] and defaults to
    ceil(16 ln N / delta^2) clamped to MAX_ROUNDS; fewer rounds leave the
    certificates sound but possibly wider than delta.
    """

    delta: float = 0.2
    rounds: int | None = None

    def __post_init__(self):
        if not 0.0 < self.delta <= 2.0:
            raise ValidationError(f"delta must lie in (0, 2], got {self.delta}")
        if self.rounds is not None and not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValidationError(
                f"rounds must lie in [1, {MAX_ROUNDS}], got {self.rounds}"
            )

    def resolved_delta1(self) -> float:
        return self.delta / 10.0

    def resolved_rounds(self, dim: int) -> int:
        """Round limit T for an N-dimensional density space. One round at
        N = 1, since the single density's exact best response is the value;
        MAX_ROUNDS wherever the formula exceeds it, including where delta^2
        underflows to 0 or the quotient overflows."""
        if self.rounds is not None:
            return int(self.rounds)
        if dim == 1:
            return 1
        square = self.delta * self.delta
        planned = 16.0 * math.log(dim) / square if square > 0.0 else math.inf
        return MAX_ROUNDS if planned >= MAX_ROUNDS else math.ceil(planned)


#: The learning-rate rule, as the trace's meta record names it.
LEARNING_RATE_RULE = "min(1/2, sqrt(8 ln N / t))"


def learning_rate(t: int, dim: int) -> float:
    """Round t's learning rate eta_t = min(1/2, sqrt(8 ln N / t)) on an
    N-dimensional density space; nonincreasing in t, and 0 at N = 1."""
    return min(0.5, math.sqrt(8.0 * math.log(dim) / t))


def _gibbs_density(dec: EigDecomp, eta: float):
    """Density exp(-eta S) / tr exp(-eta S) from the eigendecomposition of S.

    The exponent is shifted by its largest eigenvalue before exponentiating;
    the shift cancels in the normalization, so the returned density is the
    exact mathematical value up to the eigendecomposition residual. Returns
    the density, the exponent's extremes, and its spectrum gains/total as
    the weights on the eigenvectors' columns.
    """
    w = dec.eigenvalues  # descending
    gains = np.exp(-eta * (w - w[-1]))
    total = float(np.sum(gains))
    rho = (dec.eigenvectors * gains) @ dec.eigenvectors.conj().T / total
    rho = 0.5 * (rho + rho.conj().T)
    return rho, -eta * float(w[0]), -eta * float(w[-1]), gains / total


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k rounded
    operations (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Lemma 3.1)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _density_near(vectors: np.ndarray, weights: np.ndarray):
    """sigma = sum_j c_j v_j v_j* for the columns v_j of ``vectors`` (n x k)
    and weights c_j >= 0, symmetrized, with a bound on its trace-norm
    distance from the densities.

    The exact W = V diag(c) V* is positive semidefinite whatever the
    columns' departure from orthonormality. Scaling the columns, the
    product (a complex inner product of length k per entry, Higham section
    3.6) and the symmetrizing add put the computed sigma within Frobenius
    distance f = gamma_{k+4} ||V diag(c)||_F ||V||_F of W. A Hermitian sigma
    is within |tr sigma - 1| + 2 ||sigma_-||_1 of the density
    sigma_+ / tr sigma_+, and ||sigma_-||_1 <= ||sigma - W||_1 <= sqrt(n) f
    for any positive semidefinite W; the computed trace is within
    gamma_n sqrt(n) ||sigma||_F of the exact one. So the distance is at most
    |fl(tr sigma) - 1| + sqrt(n) (2 f + gamma_n ||sigma||_F), to first order
    in u, as the loop's other rounding bounds are.
    """
    scaled = vectors * weights
    sigma = scaled @ vectors.conj().T
    sigma = 0.5 * (sigma + sigma.conj().T)
    n, k = vectors.shape
    formed = _gamma(k + 4) * float(np.linalg.norm(scaled)) * float(np.linalg.norm(vectors))
    trace = float(np.trace(sigma).real)
    slack = math.sqrt(n) * (2.0 * formed + _gamma(n) * float(np.linalg.norm(sigma)))
    return sigma, abs(trace - 1.0) + slack


def _upper_candidates(evaluate, bound, eps, gibbs, spectra, value_op, value, inner):
    """Upper certificates from one Kelley cutting-plane step of Frank-Wolfe
    on sigma -> max_E <E, apply_op(sigma)>, from rho(t) toward the min
    player's best response to the round's loss M; a list of
    (widened value, widening), one per density evaluated.

    ``gibbs`` holds, per factor, the decomposition behind rho(t) and its
    weights; ``spectra`` the loss factors' decompositions. The best
    response rho_b is P / rank P per factor, P the projector onto the loss
    factor's eigenvectors within ``eps`` of its smallest eigenvalue. The
    round's witness E_t gives the tangent line value + s g_t along the
    segment sigma(s) = (1 - s) rho(t) + s rho_b, with the slope
    g_t = <E_t, apply_op(rho_b) - apply_op(rho(t))> = 2 bound (<M, rho_b> -
    <M, rho(t)>) read off the loss. With g_t >= 0 nothing is evaluated.
    Otherwise rho_b is; when its own witness E_b rises along the segment,
    g_b = <E_b, apply_op(rho_b) - apply_op(rho(t))> > 0, so does sigma(s*) at
    the crossing s* of the two tangent lines. With several factors sigma(s)
    mixes each factor and convexity only guides s*. Each value is rounded up
    by its best-response error, gamma_{K+2} ||E||_F ||apply_op(sigma)||_F
    for the K-entry complex inner product, and bound times the candidate's
    trace-norm distance from a density, since |<E, apply_op(Delta)>| <=
    bound ||Delta||_1 for Hermitian Delta (``_density_near``, per factor;
    the tensor product of densities within d_k of the factors is within
    prod (1 + d_k) - 1), so every one is an upper certificate.
    """
    picks = [dec.eigenvalues <= dec.eigenvalues[-1] + eps for dec in spectra]
    slope = 2.0 * bound * (sum(float(np.mean(dec.eigenvalues[keep]))
                               for dec, keep in zip(spectra, picks)) - inner)
    if not slope < 0.0:
        return []

    def certify(s):
        factors = []
        for (dec, weights), sp, keep in zip(gibbs, spectra, picks):
            best = sp.eigenvectors[:, keep]
            share = np.full(best.shape[1], s / best.shape[1])
            if s < 1.0:
                best = np.hstack([dec.eigenvectors, best])
                share = np.concatenate([(1.0 - s) * weights, share])
            factors.append(_density_near(best, share))
        op, witness, val, err = evaluate([sigma for sigma, _ in factors])
        widening = (err + bound * (math.prod(1.0 + d for _, d in factors) - 1.0)
                    + _gamma(np.size(op) + 2) * float(np.linalg.norm(witness))
                    * float(np.linalg.norm(op)))
        return (val + widening, widening), witness, val

    found, witness, best_value = certify(1.0)
    out = [found]
    # E_b's value at rho(t); E_b's tangent line is best_value - (1 - s) g_b.
    at_round = float(np.vdot(witness, value_op).real)
    rise = best_value - at_round
    if rise > 0.0:
        s = (value - at_round) / (rise - slope)
        if 0.0 < s < 1.0:
            out.append(certify(s)[0])
    return out


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """One solver run: its certified bracket [lower_cert, upper_cert] on an
    equilibrium value and the facts of the run.

    ``lower_cert`` is the largest of three weak-duality lower bounds on the
    equilibrium value: the minimum eigenvalue of the adjoint image of the
    averaged witness, that of the best single-round witness, and
    ``value_floor``, the lower end of the caller's proven value range (None
    without a range). ``upper_cert`` is the smallest value seen, at the
    round densities and at the upper candidates of the rounds that left the
    bracket open, an upper bound since each value is that of an exact best
    response. Both are the bracket that stopped the loop, widened by the
    measured eigendecomposition error and the rounding bound of the losses
    and their sum, and an upper end set by a candidate by that candidate's
    rounding bounds; the total is ``widening`` (nothing for a lower end set
    by the floor). The certificates are checked against each other at
    construction: they may cross by roundoff only, 1e-9 max(1, bound).

    ``dim`` is N, ``rounds`` the round limit T, ``stop_reason`` 'bracket'
    (the stop rule fired) or 'rounds' (T reached), and ``loss_sums`` the
    per-factor loss sums S_k, whose Kronecker sum is the N x N sum S.
    ``iters`` holds one dict per round, keyed as the trace's ``iter``
    record: ``t``; ``loss``, the round value plus its best-response error;
    ``cand_loss``, the round's smallest upper candidate value plus its error
    bounds, or None when the round evaluated none; ``inner``,
    <rho(t), M(t)>; ``exp_min`` and ``exp_max`` of the exponent
    -eta_t S(t-1); ``rho_trace_err`` and ``rho_min_eig``; the loss spectrum's
    ``m_min_eig`` and ``m_max_eig``; the loss sum's ``sum_min_eig``; and
    ``m_eig_err`` and ``sum_eig_err``, their error bounds from the measured
    residuals and the rounding of forming and summing the losses. Each value
    is a Python int or float (or None), since the trace's encoder refuses
    numpy scalars.
    """

    lower_cert: float
    upper_cert: float
    widening: float
    dim: int
    rounds: int
    delta: float
    delta1: float
    value_floor: float | None
    stop_reason: str
    loss_sums: tuple
    iters: tuple
    bound: float = 1.0

    def __post_init__(self):
        slack = 1e-9 * max(1.0, self.bound)
        if not self.lower_cert <= self.upper_cert + slack:
            raise CertificateViolation(
                f"certificates crossed: lower {self.lower_cert} > upper "
                f"{self.upper_cert} + {slack}"
            )

    @property
    def value(self) -> float:
        """The reported equilibrium value, the upper certificate."""
        return self.upper_cert

    @property
    def iterations(self) -> int:
        """Rounds run."""
        return len(self.iters)

    @property
    def exponent_norm_bound(self) -> float:
        """A-priori operator-norm bound on the exponent -eta_t S(t-1): the
        largest eta_t (t - 1) over t <= T."""
        # eta_t (t - 1) is nondecreasing in t: (t - 1)/2 and
        # sqrt(8 ln N) (t - 1)/sqrt(t) both are.
        return learning_rate(self.rounds, self.dim) * (self.rounds - 1)


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
    set, of ``<witness, apply_op(rho)>``, by one multiplicative weights loop.

    ``dims`` is the tuple of density factor dimensions, ``(N,)`` for a dense
    game. ``apply_op`` is called with one density per factor, whose tensor
    product is rho(t) or an upper candidate. ``argmax_op`` returns
    ``(witness, err)``: a maximizing witness and a finite ``err >= 0``
    bounding how far its value may fall short of the maximum; the value is
    rounded up by it. ``adjoint_op`` returns a witness's adjoint image as a
    tuple of Kronecker-sum factors, one per density factor, each Hermitian
    within ``HERM_TOL``; the loop symmetrizes them once, on entry. Each
    round calls ``adjoint_op`` once, on the round's witness, and
    ``apply_op`` and ``argmax_op`` on rho(t), then, only in a round that
    leaves the bracket open, on at most two upper candidates
    (``_upper_candidates``). A candidate's value passes the same gates as a
    round's and is rounded up further by the rounding bounds of its inner
    product and of its distance from a density. ``bound`` bounds
    ``|<witness, apply_op(rho)>|`` (spot-checked on every value; the
    accuracy guarantee scales with it). ``loss_range``, when given, is a
    range the caller proves every value lies in (checked on every value);
    its lower end is then a lower certificate from the start.

    The round's loss M = (I + image / bound) / 2 is fed back as computed. Its
    spectrum may leave [0, 1] by roundoff, at most LOSS_TOL; a larger
    excursion raises OracleBoundError. The rounding of forming each loss and
    adding it to the sums is bounded and counted in ``m_eig_err`` and
    ``sum_eig_err``; every loss, and so every sum of losses, is exactly
    Hermitian. The run stops ('bracket') on the first round at
    which the certified bracket is at most ``delta * bound`` wide, else
    after T rounds ('rounds').
    """
    cfg = MMWConfig() if cfg is None else cfg
    if not bound > 0:
        raise ValidationError(f"value bound must be positive, got {bound}")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"factor dimensions must be >= 1, got {dims}")
    shapes = [(d, d) for d in dims]
    dim = math.prod(dims)
    planned = cfg.resolved_rounds(dim)
    eye = np.eye(dims[0], dtype=np.complex128)

    iters = []
    sums = [np.zeros(shape, dtype=np.complex128) for shape in shapes]
    # Each round's loss-sum decompositions feed the stop rule and the next
    # round's Gibbs densities. The zero sums' exact decomposition makes
    # rho(1) = I/d per factor.
    decs = [EigDecomp(np.zeros(d), np.eye(d, dtype=np.complex128), 0.0, 0.0) for d in dims]
    # Per factor, a bound on the distance of the accumulated sum from the
    # exact sum of the losses.
    rounding = [0.0] * len(dims)
    floor = -math.inf if loss_range is None else float(loss_range[0])
    # The bracket so far: the smallest round value, the largest lambda_min of
    # one round's adjoint image, and the error of each.
    upper, upper_err, single, single_err = math.inf, 0.0, -math.inf, 0.0
    reason = "rounds"

    def evaluate(densities):
        """The value operator at ``densities``, its best response and the
        gated value: (value_op, witness, value, err)."""
        value_op = apply_op(*densities)
        witness, err = argmax_op(value_op)
        if not 0.0 <= err < math.inf:
            raise OracleBoundError(f"best-response error {err} must be finite and >= 0")
        if np.shape(witness) != np.shape(value_op):
            raise OracleBoundError(
                f"argmax_op returned a witness of shape {np.shape(witness)} for a value "
                f"operator of shape {np.shape(value_op)}"
            )
        # A non-finite entry gives a non-finite value, which the gate refuses.
        value = float(np.vdot(witness, value_op).real)
        if not abs(value) <= bound * (1.0 + LOSS_TOL) + LOSS_TOL:
            raise OracleBoundError(f"round value {value} exceeds the declared bound {bound}")
        if loss_range is not None and not (
            loss_range[0] - LOSS_TOL <= value <= loss_range[1] + LOSS_TOL
        ):
            raise OracleBoundError(f"round value {value} outside promised range {loss_range}")
        return value_op, witness, value, err

    for t in range(1, planned + 1):
        eta = learning_rate(t, dim)
        gibbs = [_gibbs_density(dec, eta) for dec in decs]
        rhos = [g[0] for g in gibbs]
        traces = [float(np.trace(r).real) for r in rhos]
        row = {
            "t": t,
            "exp_min": sum(g[1] for g in gibbs),
            "exp_max": sum(g[2] for g in gibbs),
            "rho_trace_err": abs(math.prod(traces) - 1.0),
            "rho_min_eig": math.prod(float(g[3][-1]) for g in gibbs),
        }

        value_op, witness, value, err = evaluate(rhos)
        image = [require_hermitian(f) for f in adjoint_op(witness)]
        if [f.shape for f in image] != shapes:
            raise OracleBoundError(
                f"adjoint_op returned factor shapes {[f.shape for f in image]}, "
                f"expected {shapes}"
            )
        ms = [0.5 * (image[0] / bound + eye)] + [0.5 * (f / bound) for f in image[1:]]
        # Dividing by the bound and shifting by I move each entry of M by at
        # most u (2 |M_ij| + [i = j]); the Frobenius norm bounds the spectral
        # shift.
        formed = [UNIT_ROUNDOFF * (2.0 * float(np.linalg.norm(m)) + math.sqrt(m.shape[0]))
                  for m in ms]

        spectra = [herm_eig(m) for m in ms]
        high = sum(float(dec.eigenvalues[0]) for dec in spectra)
        low = sum(float(dec.eigenvalues[-1]) for dec in spectra)
        if not (low >= -LOSS_TOL and high <= 1.0 + LOSS_TOL):
            raise OracleBoundError(
                f"loss matrix eigenvalues [{low:.3e}, {high:.3e}] violate "
                f"[0, 1] beyond the tolerance {LOSS_TOL:.1e}"
            )
        row["m_min_eig"], row["m_max_eig"] = low, high
        row["m_eig_err"] = sum(dec.error_bound for dec in spectra) + sum(formed)
        # <(x)_j rho_j, sum_k I (x) M_k (x) I> = sum_k <rho_k, M_k> prod_{j != k} tr rho_j
        row["inner"] = sum(
            float(np.vdot(r, m).real) * math.prod(traces[:k] + traces[k + 1:])
            for k, (r, m) in enumerate(zip(rhos, ms))
        )
        row["loss"] = float(value + err)
        row["cand_loss"] = None
        round_decs = decs

        for k, m in enumerate(ms):
            sums[k] = sums[k] + m
            # The add moves each entry by at most u |S_ij|.
            rounding[k] += formed[k] + UNIT_ROUNDOFF * float(np.linalg.norm(sums[k]))
        # In round 1 each sum is 0 + M, which is M in every nonzero bit, so
        # the loss spectra serve as the sums'.
        decs = spectra if t == 1 else [herm_eig(s) for s in sums]
        # lambda_min of a Kronecker sum is the sum of the factors' lambda_min.
        row["sum_min_eig"] = sum(float(dec.eigenvalues[-1]) for dec in decs)
        row["sum_eig_err"] = sum(dec.error_bound for dec in decs) + sum(rounding)
        iters.append(row)

        if row["loss"] < upper:
            upper, upper_err = row["loss"], err
        # The round's image is bound * (2 M - I).
        mine = bound * (2.0 * (low - row["m_eig_err"]) - 1.0)
        if mine > single:
            single, single_err = mine, 2.0 * bound * row["m_eig_err"]
        # The averaged witness's image is bound * (2 S / t - I).
        averaged = bound * (2.0 * (row["sum_min_eig"] - row["sum_eig_err"]) / t - 1.0)
        if averaged >= single:
            lower, lower_err = averaged, 2.0 * bound * row["sum_eig_err"] / t
        else:
            lower, lower_err = single, single_err
        if floor >= lower:
            lower, lower_err = floor, 0.0
        if upper - lower > cfg.delta * bound:
            found = _upper_candidates(
                evaluate, bound, (upper - lower) / (2.0 * bound),
                [(dec, g[3]) for dec, g in zip(round_decs, gibbs)], spectra,
                value_op, value, row["inner"])
            if found:
                row["cand_loss"] = min(found)[0]
                upper, upper_err = min(min(found), (upper, upper_err))
        if upper - lower <= cfg.delta * bound:
            reason = "bracket"
            break

    return EquilibriumResult(
        lower_cert=lower, upper_cert=upper, widening=lower_err + upper_err, bound=bound,
        dim=dim, rounds=planned, delta=cfg.delta, delta1=cfg.resolved_delta1(),
        value_floor=None if loss_range is None else floor, stop_reason=reason,
        loss_sums=tuple(sums), iters=tuple(iters),
    )


def solve_equilibrium(inst: ReducedInstance, cfg: MMWConfig | None = None) -> EquilibriumResult:
    """Equilibrium value of a reduced channel-pair instance.

    The min player plays one n x n density sigma as both input marginals,
    which keeps the value (module docstring). The round value is
    <E, arm+(sigma) - arm-(sigma)> and the loss (I + G+ - G-) / 2, so the
    loop runs on one n x n factor and N = n. Each round plays the
    positive-eigenspace projector of the difference output (the exact best
    response, with its measured error) and feeds back the shifted adjoint
    image as the loss; a round that leaves the bracket open also scores up
    to two upper candidates on the segment toward the min player's best
    response (``solve_generic``). A witness's lower certificate is lambda_min(G+ - G-),
    never below the lambda_min(G+) - lambda_max(G-) it certifies in the game
    on X0 (x) X1 (Weyl's inequality). Every round value lies in [0, 1], the
    ``loss_range``; its 0 is exact, since the zero effect is feasible and
    its adjoint image is 0, so 0 is a lower certificate from round 1 on and
    a pair at distance 2 stops as soon as its upper certificate is within
    delta of it.
    """
    def adjoint(witness):
        g_plus, minus_g_minus = difference_adjoint_factors(inst, witness)
        return (g_plus + minus_g_minus,)

    return solve_generic(
        (inst.input_dim,),
        lambda sigma: marginal_difference_output(inst, sigma, sigma),
        adjoint,
        best_effect,
        1.0,
        cfg,
        loss_range=(0.0, 1.0),
    )
