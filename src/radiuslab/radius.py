"""Optimizers for the numerical radius and its relatives.

All quantities here are suprema of smooth-enough objectives over one or two
angles:

* ``w(T) = sup_theta || Re(exp(i theta) T) ||`` (numerical radius),
* ``w_N(T) = sup_theta N(Re(exp(i theta) T))`` for a pluggable norm N,
* ``Omega(T) = sup { || zeta T + eta T* || : |zeta|^2 + |eta|^2 <= 1 }``,
* ``w_Omega(T) = sqrt(2) w(T)``.

The shared strategy is a uniform grid over the period followed by
golden-section refinement of the best few local brackets, which is
derivative-free (eigenvalue branches may cross non-smoothly) and
deterministic for fixed options.  Because every norm satisfies
N(-A) = N(A), the angle objective has period pi; the optimizers exploit
that only when the norm declares it (`even` flag), never for user-supplied
evaluators.

An angle objective is one function F from angles to values: the coarse
grid calls it once on all grid angles and each golden-section probe on one
float angle.  `rotated_objective` builds F on cos(t) Re(T) - sin(t) Im(T):
one chunked stack for the grid, one `norm.evaluate` per probe.

For Omega the supremum over the coefficient ball is attained on the sphere
(positive homogeneity) and the global phase of (zeta, eta) drops out of the
operator norm, so the search space is zeta = cos(s), eta = exp(i psi) sin(s)
with s in [0, pi/2] and psi in [0, 2 pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    adjoint,
    as_matrix,
    frobenius_norm,
    im_part,
    re_part,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi
# cap on complex entries held by one batched grid evaluation (~32 MB)
_CHUNK_ENTRIES = 2_000_000


@dataclass(frozen=True)
class RadiusResult:
    """Optimized radius: value, maximizing angle in [0, 2 pi), final bracket
    width, and the number of objective evaluations spent."""

    value: float
    argmax_theta: float
    achieved_interval: float
    evaluations: int


@dataclass(frozen=True)
class OmegaResult:
    """Optimized Omega norm with its maximizing (s, psi) coefficients."""

    value: float
    argmax: tuple[float, float]
    achieved_cell: float
    evaluations: int


def _golden_max(f, lo: float, hi: float, tol: float, seed=None, max_iter: int = 300):
    """Golden-section maximization on [lo, hi] down to bracket width tol.

    Returns (x, fx, width, evaluations) for the best point actually
    evaluated; `seed` may carry an already-known (x, fx) inside the bracket.
    Ties go to the smaller x so the search is deterministic.
    """
    a, b = float(lo), float(hi)
    if seed is not None:
        best_x, best_v = float(seed[0]), float(seed[1])
    else:
        best_x, best_v = a, -math.inf
    h = b - a
    if h <= tol:
        return best_x, best_v, h, 0
    x1 = b - _INVPHI * h
    x2 = a + _INVPHI * h
    f1, f2 = f(x1), f(x2)
    evals = 2
    for x, v in ((x1, f1), (x2, f2)):
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v
    while h > tol and evals < max_iter:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x1 = b - _INVPHI * h
            f1 = f(x1)
            evals += 1
            if f1 > best_v or (f1 == best_v and x1 < best_x):
                best_x, best_v = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x2 = a + _INVPHI * h
            f2 = f(x2)
            evals += 1
            if f2 > best_v or (f2 == best_v and x2 < best_x):
                best_x, best_v = x2, f2
    return best_x, best_v, h, evals


def maximize_on_circle(F, period: float, points: int, refine_tol: float,
                       top_brackets: int):
    """Grid-plus-refinement maximum of a periodic objective.

    Evaluates F on `points` uniform samples of one period in one call,
    picks the `top_brackets` best cyclic local maxima, refines each bracket
    by golden section (F on one float angle per probe) to width
    `refine_tol`, and returns (argmax, value, final_width, evaluations).
    """
    if points < 4:
        raise ValueError("need at least 4 grid points")
    thetas = np.arange(points) * (period / points)
    vals = np.asarray(F(thetas), dtype=float)
    evals = points
    prev = np.roll(vals, 1)
    nxt = np.roll(vals, -1)
    local = np.flatnonzero((vals >= prev) & (vals >= nxt))
    if local.size == 0:
        local = np.array([int(np.argmax(vals))])
    order = sorted(local.tolist(), key=lambda i: (-vals[i], i))[: max(1, top_brackets)]
    h = period / points
    best = None  # (value, x, width)
    for i in order:
        center = float(thetas[i])
        x, v, w, ev = _golden_max(F, center - h, center + h, refine_tol,
                                  seed=(center, float(vals[i])))
        evals += ev
        if best is None or v > best[0] or (v == best[0] and x < best[1]):
            best = (v, x, w)
    value, x, width = best
    return x, value, width, evals


def minimize_on_circle(F, period: float, points: int, refine_tol: float,
                       top_brackets: int):
    """Counterpart of maximize_on_circle for infima."""
    x, v, w, e = maximize_on_circle(lambda angles: -F(angles), period, points,
                                    refine_tol, top_brackets)
    return x, -v, w, e


def evaluate_chunked(fn, count: int, entry_size: int) -> np.ndarray:
    """The values fn(lo, hi) of grid points lo..hi-1, for all `count` points,
    computed in chunks of at most _CHUNK_ENTRIES // entry_size points so a
    grid stage never holds more than _CHUNK_ENTRIES stacked matrix entries."""
    out = np.empty(count)
    step = max(1, _CHUNK_ENTRIES // max(1, entry_size))
    for a in range(0, count, step):
        b = min(a + step, count)
        out[a:b] = np.asarray(fn(a, b), dtype=float)
    return out


def _real_coefficients(c, s):
    return c, s


def im_coefficients(c, s):
    """Coefficients of Im(exp(i t) T) = sin(t) Re(T) + cos(t) Im(T) for
    `rotated_objective`."""
    return s, -c


def rotated_objective(T, evaluate, evaluate_many=None, coefficients=_real_coefficients):
    """The angle objective F(t) = evaluate(a Re(T) - b Im(T)), where
    (a, b) = coefficients(cos t, sin t); the default gives Re(exp(i t) T).

    On one float angle F returns evaluate(operand) as a float.  On an array
    of angles it returns evaluate_many of the stacked operands, chunked by
    `evaluate_chunked`, or without `evaluate_many` one evaluate per angle.
    """
    arr = as_matrix(T, square=True)
    re, im = re_part(arr), im_part(arr)

    def one(t: float) -> float:
        a, b = coefficients(math.cos(t), math.sin(t))
        return float(evaluate(a * re - b * im))

    def F(angles):
        if isinstance(angles, float):
            return one(angles)
        if evaluate_many is None:
            return np.array([one(float(t)) for t in angles])
        a, b = coefficients(np.cos(angles), np.sin(angles))

        def values(lo, hi):
            return evaluate_many(a[lo:hi, None, None] * re - b[lo:hi, None, None] * im)

        return evaluate_chunked(values, angles.size, re.size)

    return F


def generalized_radius(T, norm, *, grid: int = 720, refine_tol: float = 1e-10,
                       top_brackets: int = 5) -> RadiusResult:
    """w_N(T): maximize N(Re(exp(i theta) T)) over theta.

    `grid` counts points over the full 2 pi period; norms declaring
    `even` are sampled at the same resolution over [0, pi) only.
    """
    period = math.pi if norm.even else _TWO_PI
    points = max(8, grid // 2 if norm.even else grid)
    F = rotated_objective(T, norm.evaluate, norm.evaluate_many)
    x, v, width, evals = maximize_on_circle(F, period, points, refine_tol, top_brackets)
    return RadiusResult(value=v, argmax_theta=x % _TWO_PI,
                        achieved_interval=width, evaluations=evals)


def _top_eigenvalue(h):
    return np.linalg.eigvalsh(h)[..., -1]


def numerical_radius(T, *, grid: int = 720, refine_tol: float = 1e-10,
                     top_brackets: int = 5, method: str = "spectral") -> RadiusResult:
    """w(T), the numerical radius.

    method="spectral" maximizes ||Re(exp(i theta) T)|| over half a period
    (the operator norm is even); method="lambda-max" maximizes the top
    eigenvalue lambda_max(Re(exp(i theta) T)) over the full period, which
    gives the same supremum because theta -> theta + pi negates the
    Hermitian part.
    """
    if method == "spectral":
        from .norms import operator_norm_spec

        return generalized_radius(T, operator_norm_spec(), grid=grid,
                                  refine_tol=refine_tol, top_brackets=top_brackets)
    if method != "lambda-max":
        raise ValueError(f"unknown method {method!r}")
    F = rotated_objective(T, _top_eigenvalue, _top_eigenvalue)
    x, v, width, evals = maximize_on_circle(F, _TWO_PI, max(8, grid), refine_tol,
                                            top_brackets)
    return RadiusResult(value=v, argmax_theta=x % _TWO_PI,
                        achieved_interval=width, evaluations=evals)


def numerical_radius_oracle(T, grid: int = 200000) -> float:
    """Brute-force w(T): max of lambda_max(Re(exp(i theta) T)) over a dense
    uniform theta grid on [0, 2 pi), no refinement.  Test oracle only."""
    arr = as_matrix(T, square=True)
    re, im = re_part(arr), im_part(arr)
    n = arr.shape[0]
    step = max(1, _CHUNK_ENTRIES // (n * n))
    best = -math.inf
    for a in range(0, grid, step):
        idx = np.arange(a, min(a + step, grid))
        thetas = idx * (_TWO_PI / grid)
        stack = (np.cos(thetas)[:, None, None] * re
                 - np.sin(thetas)[:, None, None] * im)
        best = max(best, float(np.linalg.eigvalsh(stack)[..., -1].max()))
    return best


def alphabeta_radius(T, norm, grid: int = 720, *, refine_tol: float = 1e-10,
                     top_brackets: int = 5) -> float:
    """sup of N(alpha Re(T) + beta Im(T)) over the real unit circle
    (alpha, beta) = (cos t, sin t); equals w_N(T)."""
    period = math.pi if norm.even else _TWO_PI
    points = max(8, grid // 2 if norm.even else grid)
    F = rotated_objective(T, norm.evaluate, norm.evaluate_many, lambda c, s: (c, -s))
    _, v, _, _ = maximize_on_circle(F, period, points, refine_tol, top_brackets)
    return float(v)


def _canonical_phase(arr: np.ndarray) -> float:
    """A phase gamma with Omega(e^{-i gamma} A) == Omega(A), equivariant
    under scalar rescaling: c A maps (up to positive scale and sign) to the
    same canonical matrix as A.  This pins the psi-landscape in place, so
    the Omega search gives consistent results for scalar multiples even on
    near-flat ridges.  tr(A^2) rotates with twice the phase of A; when it
    vanishes (square-zero inputs), the largest-modulus entry stands in."""
    tr_sq = complex(np.einsum("ij,ji->", arr, arr))
    fro_sq = float(np.sum(np.abs(arr) ** 2))
    if abs(tr_sq) > 1e-8 * max(fro_sq, 1e-300):
        return 0.5 * cmath.phase(tr_sq)
    flat = arr.reshape(-1)
    k = int(np.argmax(np.abs(flat)))
    if abs(flat[k]) == 0.0:
        return 0.0
    return cmath.phase(complex(flat[k]))


def _omega_basis(arr: np.ndarray) -> np.ndarray:
    """The four Hermitian matrices whose real combinations are the Gram
    matrices of the Omega objective.

    With c = cos(s), sigma = sin(s) and M = c A + exp(i psi) sigma A*,
    M* M = c^2 A*A + sigma^2 AA* + 2 c sigma (cos(psi) Re(A*^2) - sin(psi) Im(A*^2)),
    so ||M||^2 is the top eigenvalue of that real combination.  Returned as
    the (4, n, n) stack [A*A, AA*, Re(A*^2), Im(A*^2)].
    """
    at = adjoint(arr)
    sq = at @ at
    return np.stack([re_part(at @ arr), re_part(arr @ at), re_part(sq), im_part(sq)])


def _omega_grid(basis: np.ndarray, s_nodes: np.ndarray, p_nodes: np.ndarray):
    """||cos(s) A + exp(i psi) sin(s) A*|| on the full s_nodes x p_nodes grid.

    Only the rows s <= pi/4 are evaluated: the matrices at (s, psi) and
    (pi/2 - s, psi) are adjoints of each other up to a unit phase, so each
    evaluated row is mirrored onto row grid_s - 1 - i (s_nodes must be
    symmetric about pi/4, as linspace(0, pi/2, grid_s) is).  Every chunk's
    Gram stack is one real product of its weights with the basis.  Returns
    (values of shape (grid_s, grid_psi), grid points evaluated).
    """
    n = basis.shape[-1]
    grid_s, grid_psi = s_nodes.size, p_nodes.size
    rows = (grid_s + 1) // 2
    c = np.cos(s_nodes[:rows])[:, None]
    sigma = np.sin(s_nodes[:rows])[:, None]
    cs = 2.0 * c * sigma
    weights = np.empty((rows, grid_psi, 4))
    weights[..., 0] = c * c
    weights[..., 1] = sigma * sigma
    weights[..., 2] = cs * np.cos(p_nodes)
    weights[..., 3] = -cs * np.sin(p_nodes)
    weights = weights.reshape(-1, 4)
    # complex entries viewed as (re, im) float pairs: real weights act on both
    flat = basis.reshape(4, n * n).view(np.float64)

    def tops(a, b):
        gram = (weights[a:b] @ flat).view(np.complex128).reshape(b - a, n, n)
        return np.linalg.eigvalsh(gram)[..., -1]

    half = np.sqrt(np.maximum(evaluate_chunked(tops, weights.shape[0], n * n), 0.0))
    half = half.reshape(rows, grid_psi)
    vals = np.empty((grid_s, grid_psi))
    vals[:rows] = half
    vals[rows:] = half[: grid_s - rows][::-1]
    return vals, half.size


def _omega_objective(basis: np.ndarray):
    """g(s, psi) = ||cos(s) A + exp(i psi) sin(s) A*|| from the Gram basis:
    four scalar weights, one n x n combination and one eigvalsh per probe."""
    n = basis.shape[-1]
    flat = basis.reshape(4, n * n).view(np.float64)

    def g(s: float, psi: float) -> float:
        c, sigma = math.cos(s), math.sin(s)
        cs = 2.0 * c * sigma
        gram = np.dot((c * c, sigma * sigma, cs * math.cos(psi), -cs * math.sin(psi)),
                      flat)
        top = np.linalg.eigvalsh(gram.view(np.complex128).reshape(n, n))[-1]
        return math.sqrt(top) if top > 0.0 else 0.0

    return g


def omega_norm(T, *, grid_s: int = 96, grid_psi: int = 192,
               refine_tol: float = 1e-9, top_cells: int = 5,
               max_rounds: int = 100) -> OmegaResult:
    """Omega(T): maximize ||cos(s) T + exp(i psi) sin(s) T*||.

    Coarse grid over [0, pi/2] x [0, 2 pi), then alternating per-coordinate
    golden-section refinement of the best `top_cells` cells until the cell
    width drops below `refine_tol` (or `max_rounds` alternations).  A
    coordinate whose refined optimum lands on its bracket edge gets its
    bracket re-expanded instead of shrunk, so ridge-shaped maxima are
    followed rather than clipped.  Grid ties break toward smaller s, then
    smaller psi.

    Two exact symmetries are quotiented out: the global phase of the
    coefficient pair (zeta is kept real non-negative), and the global phase
    of T itself (the search runs on a phase-canonicalized copy and the
    maximizing psi is mapped back), so scalar multiples of one matrix see
    the same search landscape.  A third, s <-> pi/2 - s, halves the grid
    (`_omega_grid`); every value comes from the Gram basis of `_omega_basis`.
    `evaluations` counts the grid points and probes actually evaluated.
    """
    if grid_s < 4 or grid_psi < 4:
        raise ValueError("omega grids need at least 4 points per axis")
    raw = as_matrix(T, square=True)
    gamma = _canonical_phase(raw)
    arr = raw * complex(math.cos(-gamma), math.sin(-gamma)) if gamma != 0.0 else raw
    basis = _omega_basis(arr)
    half_pi = math.pi / 2
    s_nodes = np.linspace(0.0, half_pi, grid_s)
    p_nodes = np.arange(grid_psi) * (_TWO_PI / grid_psi)

    grid, evals = _omega_grid(basis, s_nodes, p_nodes)
    vals = grid.ravel()
    g = _omega_objective(basis)

    ii, jj = np.divmod(np.arange(vals.size), grid_psi)
    order = np.lexsort((jj, ii, -vals))[: max(1, top_cells)]
    ds = half_pi / (grid_s - 1)
    dp = _TWO_PI / grid_psi
    best = None  # (value, s, psi, cell_width)
    for k in order:
        i, j = int(ii[k]), int(jj[k])
        s, psi, v = float(s_nodes[i]), float(p_nodes[j]), float(vals[k])
        hs, hp = ds, dp
        cell = 2.0 * max(hs, hp)
        for _ in range(max_rounds):
            if cell <= refine_tol:
                break
            lo, hi = max(0.0, s - hs), min(half_pi, s + hs)
            tol_s = max(refine_tol / 2, 0.05 * (hi - lo))
            s2, v2, ws, ev = _golden_max(lambda t: g(t, psi), lo, hi, tol_s, seed=(s, v))
            evals += ev
            # landing on a bracket edge means the maximum may lie outside the
            # bracket, unless that edge is the domain boundary itself
            hit_s = (((s2 - lo) < 0.05 * (hi - lo) and lo > 0.0)
                     or ((hi - s2) < 0.05 * (hi - lo) and hi < half_pi))
            s, v = s2, v2
            lo_p, hi_p = psi - hp, psi + hp
            tol_p = max(refine_tol / 2, 0.05 * (hi_p - lo_p))
            p2, v3, wp, ev = _golden_max(lambda t: g(s, t), lo_p, hi_p, tol_p,
                                         seed=(psi, v))
            evals += ev
            hit_p = (p2 - lo_p) < 0.05 * (hi_p - lo_p) or (hi_p - p2) < 0.05 * (hi_p - lo_p)
            psi, v = p2, v3
            hs = min(ds, 2.0 * ws) if hit_s else ws
            hp = min(dp, 2.0 * wp) if hit_p else wp
            cell = 2.0 * max(hs, hp)
        cand = (v, s, psi, cell)
        if (best is None or cand[0] > best[0]
                or (cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2]))):
            best = cand
    v, s, psi, cell = best
    # map the maximizer back to the caller's matrix: for T = e^{i gamma} A,
    # ||cos(s) A + e^{i psi} sin(s) A*|| == ||cos(s) T + e^{i (psi + 2 gamma)} sin(s) T*||
    return OmegaResult(value=float(v),
                       argmax=(min(max(s, 0.0), half_pi), (psi + 2.0 * gamma) % _TWO_PI),
                       achieved_cell=float(cell), evaluations=evals)


def omega_vector_lower_bound(T, samples: int, seed: int) -> float:
    """Monte-Carlo lower bound for Omega(T): the best of
    sqrt(|<Ty, x>|^2 + |<T*y, x>|^2) over `samples` seeded unit pairs."""
    from .ensembles import random_unit_vectors

    arr = as_matrix(T, square=True)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    vecs = random_unit_vectors(seed, 2 * samples, arr.shape[0])
    x, y = vecs[0::2], vecs[1::2]
    ty = y @ arr.T
    tsy = y @ np.conj(arr)
    a = np.sum(np.conj(x) * ty, axis=1)
    b = np.sum(np.conj(x) * tsy, axis=1)
    return float(np.sqrt(np.max(np.abs(a) ** 2 + np.abs(b) ** 2)))


# Reduced (but still refined) settings for the slow w_Omega path: the
# outer objective is the smooth numerical-radius objective scaled by
# sqrt(2) and the inner Omega evaluations act on Hermitian matrices, so
# coarse grids localize the maxima and golden-section recovers precision
# quadratically (bracket width w costs only O(w^2) in value).
SLOW_OMEGA_OUTER = {"grid": 96, "refine_tol": 1e-6, "top_brackets": 3}
SLOW_OMEGA_INNER = {"grid_s": 13, "grid_psi": 24, "refine_tol": 1e-4, "top_cells": 2}


def omega_radius(T, *, grid: int = 720, refine_tol: float = 1e-10,
                 top_brackets: int = 5) -> float:
    """w_Omega(T) = sqrt(2) w(T) (the Omega radius collapses to the
    numerical radius because Omega doubles to sqrt(2) times the operator
    norm on Hermitian matrices)."""
    return math.sqrt(2.0) * numerical_radius(
        T, grid=grid, refine_tol=refine_tol, top_brackets=top_brackets).value


def omega_radius_slow(T, outer: dict | None = None, inner: dict | None = None) -> float:
    """w_Omega(T) computed the long way: generalized_radius with the Omega
    norm itself as N.  Cross-validates omega_radius."""
    from .norms import omega_norm_spec

    outer_opts = dict(SLOW_OMEGA_OUTER if outer is None else outer)
    inner_opts = dict(SLOW_OMEGA_INNER if inner is None else inner)
    return generalized_radius(T, omega_norm_spec(**inner_opts), **outer_opts).value


def hs_radius_sq(T) -> float:
    """The squared Hilbert-Schmidt radius identity:
    w_2(T)^2 = ||T||_F^2 / 2 + |tr(T^2)| / 2.

    The right side scales quadratically in T, so this is an identity for
    the square of the Frobenius-norm radius; the test suite verifies
    generalized_radius(T, Frobenius)^2 against it.
    """
    arr = as_matrix(T, square=True)
    tr_sq = complex(np.einsum("ij,ji->", arr, arr))
    return 0.5 * frobenius_norm(arr) ** 2 + 0.5 * abs(tr_sq)
