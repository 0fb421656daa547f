"""Seeded channel-pair inputs with closed-form diamond distances.

Every pair is written as a ``diamondeq`` channel file (``{"channels": [a, b]}``
with complex entries as ``[re, im]`` pairs) and carries its reference
distance ``D``, computed here with plain numpy and never by ``diamondeq``.

Families:

* ``arc``: unitaries ``(U, U W)`` where the eigenphases of ``W`` fill an arc
  of width ``s <= pi``; ``D = 2 sin(s/2)``.
* ``weyl``: Pauli-type channels ``rho -> sum_ab p_ab W_ab rho W_ab*`` with
  ``W_ab = V X^a Z^b V*`` (Heisenberg-Weyl operators in a random basis ``V``),
  written as ``kraus`` or ``stinespring``; ``D = ||p - q||_1`` and ``z = d^2``.
* ``constant``: channels that always output ``sigma_0`` or ``sigma_1``;
  ``D = ||sigma_0 - sigma_1||_1`` and ``z = m n``.

The seed draws bases, phases and probability vectors; the target distance of
each slot is fixed by the workload, so two seeds pose problems of the same
size and difficulty. ``self_check`` recomputes every ``D`` a second way.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

#: Agreement required between the closed form and the second computation.
SELF_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class Slot:
    """One invocation of a workload: which pair to generate and how to run it.

    ``dims`` is ``(n,)`` for ``arc``, ``(d,)`` for ``weyl`` and ``(n, m)`` for
    ``constant``. ``target`` is the diamond distance the generated pair has.
    ``command`` is ``bounds`` or ``qcd`` (the latter with ``QCD_PROMISE``).
    """

    family: str
    dims: tuple
    target: float
    command: str = "bounds"
    form: str = "kraus"


#: Promise (a, b) for every ``qcd`` invocation; its gap clears the refusal
#: test at delta = 0.2 (threshold gap 0.538 > 2 (0.2 + 0.02)).
QCD_PROMISE = (1.9, 0.3)


@dataclass(frozen=True)
class Workload:
    name: str
    delta: float
    slots: tuple


WORKLOADS = {
    w.name: w for w in (
        # Every kind at n = 2..4, half bounds and half qcd. A round costs well
        # under 1 ms, so per-call validation and trace writing dominate.
        Workload(
            "small-mixed", 0.2,
            (
                Slot("arc", (2,), 1.2),
                Slot("arc", (3,), 2.0, "qcd"),
                Slot("arc", (4,), 0.2),
                Slot("weyl", (2,), 0.8),
                Slot("weyl", (3,), 0.25, "qcd"),
                Slot("weyl", (2,), 2.0, "qcd", "stinespring"),
                Slot("weyl", (3,), 1.0, "bounds", "stinespring"),
                Slot("constant", (2, 3), 0.5),
                Slot("constant", (4, 2), 2.0, "qcd"),
                Slot("constant", (3, 2), 0.28, "qcd"),
            ),
        ),
        # Trivial environment: the two n^2 x n^2 eighs per round dominate. At
        # n = 16 one solve takes about 35 s, longer than a whole run.
        Workload(
            "dense-unitary", 0.4,
            (
                Slot("arc", (8,), 1.0),
                Slot("arc", (10,), 1.5),
                Slot("arc", (12,), 0.6),
            ),
        ),
        # Small pairs with environments of 18..25: the (2mz)^2 adjoint lift and
        # the arm-output partial traces dominate, not the n^2 x n^2 eighs.
        Workload(
            "wide-env", 0.2,
            (
                Slot("weyl", (5,), 0.9),
                Slot("constant", (3, 6), 0.7),
                Slot("constant", (2, 12), 1.3),
            ),
        ),
    )
}


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(rng: np.random.Generator, m: int) -> np.ndarray:
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def trace_norm_herm(h: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))))


def weyl_ops(d: int) -> list:
    """The d^2 operators X^a Z^b, index a*d + b."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            for a in range(d) for b in range(d)]


def _mix_to_distance(p: np.ndarray, target: float) -> np.ndarray:
    """q = (1 - t) p + t e_k with ||p - q||_1 = target exactly, where k is the
    smallest entry of p (so ||p - e_k||_1 = 2 (1 - p_k) >= target)."""
    k = int(np.argmin(p))
    e = np.zeros_like(p)
    e[k] = 1.0
    t = target / float(np.sum(np.abs(p - e)))
    if not 0.0 < t <= 1.0:
        raise ValueError(f"target distance {target} unreachable from this vector")
    return (1.0 - t) * p + t * e


def _split_probabilities(rng, size: int, target: float):
    if target == 2.0:
        idx = rng.permutation(size)
        half = size // 2
        p = np.zeros(size)
        q = np.zeros(size)
        p[idx[:half]] = rng.dirichlet(np.ones(half))
        q[idx[half:]] = rng.dirichlet(np.ones(size - half))
        return p, q
    p = rng.dirichlet(np.ones(size))
    return p, _mix_to_distance(p, target)


def _json_matrix(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def from_json(m: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in m])


def _spec(kind: str, n: int, m: int, mats: list) -> dict:
    return {"kind": kind, "input_dim": n, "output_dim": m,
            "matrices": [_json_matrix(x) for x in mats]}


def arc_pair(rng, n: int, target: float):
    s = 2.0 * math.asin(min(1.0, target / 2.0))
    phases = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate(
        [[0.0, s], rng.uniform(0.0, s, n - 2)])
    v = haar_unitary(rng, n)
    w = (v * np.exp(1j * phases)) @ v.conj().T
    u = haar_unitary(rng, n)
    specs = [_spec("unitary", n, n, [u]), _spec("unitary", n, n, [u @ w])]
    return specs, 2.0 * math.sin(s / 2.0)


def weyl_kraus(v: np.ndarray, probs: np.ndarray, ops: list) -> list:
    return [math.sqrt(pk) * (v @ w @ v.conj().T) for pk, w in zip(probs, ops)]


def stinespring_from_kraus(kraus: list) -> np.ndarray:
    """A with A[y z + k, x] = K_k[y, x]: output factor Y before environment Z."""
    m, n = kraus[0].shape
    return np.stack(kraus, axis=1).reshape(m * len(kraus), n)


def weyl_pair(rng, d: int, target: float, form: str):
    p, q = _split_probabilities(rng, d * d, target)
    v = haar_unitary(rng, d)
    ops = weyl_ops(d)
    specs = []
    for probs in (p, q):
        kraus = weyl_kraus(v, probs, ops)
        if form == "kraus":
            specs.append(_spec("kraus", d, d, kraus))
        else:
            spec = _spec("stinespring", d, d, [stinespring_from_kraus(kraus)])
            spec["env_dim"] = d * d
            specs.append(spec)
    return specs, float(np.sum(np.abs(p - q)))


def constant_pair(rng, n: int, m: int, target: float):
    if target == 2.0:
        basis = haar_unitary(rng, m)
        half = m // 2
        sigmas = []
        for cols in (basis[:, :half], basis[:, half:]):
            weights = rng.dirichlet(np.ones(cols.shape[1]))
            sigmas.append((cols * weights) @ cols.conj().T)
    else:
        s0 = random_density(rng, m)
        _, u = np.linalg.eigh(s0)
        tau = np.outer(u[:, 0], u[:, 0].conj())
        t = target / trace_norm_herm(s0 - tau)
        if not 0.0 < t <= 1.0:
            raise ValueError(f"target distance {target} unreachable from this state")
        sigmas = [s0, (1.0 - t) * s0 + t * tau]
    sigmas = [0.5 * (s + s.conj().T) for s in sigmas]
    specs = [_spec("constant", n, m, [s]) for s in sigmas]
    return specs, trace_norm_herm(sigmas[0] - sigmas[1])


def hull_distance(points: np.ndarray) -> float:
    """Distance from the origin to the convex hull of complex points, by the
    support function: max(0, max_u min_k Re(conj(u) p_k)) over unit u. The
    maximum is attained at a direction through a vertex or normal to an edge,
    so checking those candidates is exact."""
    cands = [p / abs(p) for p in points]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            edge = points[j] - points[i]
            if abs(edge) > 0:
                normal = 1j * edge / abs(edge)
                cands.extend((normal, -normal))
    best = max(float(np.min((np.conj(u) * points).real)) for u in cands)
    return max(0.0, best)


def choi_difference_norm(kraus0: list, kraus1: list) -> float:
    """||J0 - J1||_1 with J the Choi state at the maximally entangled input."""
    n = kraus0[0].shape[1]

    def choi(kraus):
        # J = (1/n) sum_k vec(K_k) vec(K_k)*, vec stacking (y, x) row-major.
        vecs = np.stack([k.reshape(-1) for k in kraus], axis=1)
        return vecs @ vecs.conj().T / n

    return trace_norm_herm(choi(kraus0) - choi(kraus1))


def constant_kraus(sigma: np.ndarray, n: int) -> list:
    """Kraus operators sqrt(w_j) |v_j><x| of the channel X -> tr(X) sigma."""
    w, v = np.linalg.eigh(sigma)
    ops = []
    for j in range(len(w)):
        for x in range(n):
            k = np.zeros((sigma.shape[0], n), dtype=complex)
            k[:, x] = math.sqrt(max(0.0, float(w[j]))) * v[:, j]
            ops.append(k)
    return ops


@dataclass(frozen=True)
class Pair:
    slot: Slot
    specs: list
    distance: float
    second: float

    @property
    def input_dim(self) -> int:
        return self.specs[0]["input_dim"]


def _second_distance(slot: Slot, specs: list) -> float:
    """The pair's diamond distance recomputed from the matrices as written."""
    mats = [[from_json(m) for m in spec["matrices"]] for spec in specs]
    if slot.family == "arc":
        h = hull_distance(np.linalg.eigvals(mats[0][0].conj().T @ mats[1][0]))
        return 2.0 * math.sqrt(max(0.0, 1.0 - h * h))
    if slot.family == "weyl":
        if slot.form == "stinespring":
            (d,) = slot.dims
            mats = [[a[0].reshape(d, d * d, d)[:, k, :] for k in range(d * d)] for a in mats]
        return choi_difference_norm(*mats)
    n = slot.dims[0]
    return choi_difference_norm(constant_kraus(mats[0][0], n), constant_kraus(mats[1][0], n))


def make_pair(rng, slot: Slot) -> Pair:
    if slot.family == "arc":
        specs, dist = arc_pair(rng, slot.dims[0], slot.target)
    elif slot.family == "weyl":
        specs, dist = weyl_pair(rng, slot.dims[0], slot.target, slot.form)
    elif slot.family == "constant":
        specs, dist = constant_pair(rng, *slot.dims, slot.target)
    else:
        raise ValueError(f"unknown family {slot.family!r}")
    return Pair(slot, specs, dist, _second_distance(slot, specs))


def make_pairs(workload: Workload, seed: int) -> list:
    """The workload's pairs; each workload draws from its own stream."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    return [make_pair(rng, slot) for slot in workload.slots]


def _constraint_residual(spec: dict) -> float:
    mats = [from_json(m) for m in spec["matrices"]]
    if spec["kind"] == "constant":
        s = mats[0]
        low = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0])
        return max(abs(np.trace(s) - 1.0), np.linalg.norm(s - s.conj().T), -low)
    gram = sum(k.conj().T @ k for k in mats)
    return float(np.linalg.norm(gram - np.eye(spec["input_dim"])))


def self_check(pairs: list) -> None:
    """Raise unless every reference distance matches its target and its second
    computation, and every written matrix satisfies its kind's constraint."""
    for k, pair in enumerate(pairs):
        for spec in pair.specs:
            residual = _constraint_residual(spec)
            if residual > SELF_CHECK_TOL:
                raise AssertionError(
                    f"pair {k}: written {spec['kind']} matrices violate their "
                    f"constraint by {residual:.3e}")
        for label, value in (("target", pair.slot.target), ("second way", pair.second)):
            if abs(pair.distance - value) > SELF_CHECK_TOL:
                raise AssertionError(
                    f"pair {k} ({pair.slot.family} {pair.slot.dims}): reference "
                    f"distance {pair.distance!r} differs from {label} {value!r}")


def write_pair(pair: Pair, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"channels": pair.specs}, handle)
