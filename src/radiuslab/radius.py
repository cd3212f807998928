"""Optimizers for the numerical radius and its relatives.

All quantities here are suprema of smooth-enough objectives over one or two
angles:

* ``w(T) = sup_theta || Re(exp(i theta) T) ||`` (numerical radius),
* ``w_N(T) = sup_theta N(Re(exp(i theta) T))`` for a pluggable norm N,
* ``Omega(T) = sup { || zeta T + eta T* || : |zeta|^2 + |eta|^2 <= 1 }``,
* ``w_Omega(T) = sqrt(2) w(T)``.

w(T) has its own engine, `numerical_radius`: a level-set iteration on
lambda_max(H(theta)), H(theta) = Re(exp(i theta) T).  A level r is an
eigenvalue of some H(theta) exactly when z = exp(i theta) is a unimodular
eigenvalue of the quadratic pencil z^2 T - 2 r z I + T*.  One shift-inverted
2n x 2n eigensolve (shift 0.5 exp(i), off the unit circle and off the real
axis, with a second shift tried when it sits on a pencil eigenvalue) finds
every crossing of a level; eigenvalues within 1e-6 sqrt(max(1, ||M||_1)) of
the unit circle count, M being the shift-inverted matrix of the pencil of
T / max |T_ij|, so the tolerance is scale-free.  The midpoints of the
intervals between crossings, evaluated in one batched eigvalsh, give the
next level, and the iteration ends when a level has no crossings or raises
r by at most `refine_tol` * max(1, r).  A pencil too close to singular to
resolve crossings (flat lambda_max, as for square-zero T) hands the search
to the grid optimizer below.  Ties go to the smallest angle.

Every other supremum uses a uniform grid over the period followed by
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


# Level-set engine for w(T).  Seed angles: multiples of pi/4, so the
# maximizer of a Hermitian or skew-Hermitian T is a seed.
_SEED_ANGLES = np.arange(8) * (_TWO_PI / 8)
# Shift-invert poles: off the unit circle, where the crossings live, and off
# the real axis, where the other pencil eigenvalues of a Hermitian T lie.
# The second is tried only when the first is (within ~1e-6 of) a pencil
# eigenvalue.
_SHIFTS = (0.5 * cmath.exp(1.0j), 0.5 * cmath.exp(2.5j))
# ||M||_1 of the shift-inverted matrix M above this for every shift means the
# pencil is within ~1e-6 of singular (lambda_max(H(theta)) flat to that
# level, as for square-zero T): double precision does not resolve crossings
_MAX_CONDITION = 1e6
# | |z| - 1 | bound for a crossing, times sqrt(max(1, ||M||_1)): rounding
# moves a transversal crossing by about eps ||M||, but splits the pair at a
# tangency (the maximum itself) about sqrt(eps ||M||) off the circle, and
# that pair must still count
_UNIMODULAR_TOL = 1e-6
_MAX_LEVELS = 50
# the grid optimizer that takes over where crossings are not resolved
_FLAT_GRID = 720
_FLAT_BRACKETS = 5


def _level_crossings(that: np.ndarray, level: float) -> np.ndarray | None:
    """The sorted angles t in [0, 2 pi) at which `level` is an eigenvalue of
    Re(exp(i t) That), or None where double precision cannot resolve them.

    They are the unimodular eigenvalues z = exp(i t) of the quadratic pencil
    z^2 That - 2 level z I + That*, linearized with v = (x, z x) as
    A v = z B v, A = [[0, I], [-That*, 2 level I]], B = diag(I, That).  One
    eigvals of M = (A - shift B)^-1 B gives mu = 1/(z - shift); a singular
    That only adds mu = 0 (infinite z).  The first shift with
    ||M||_1 <= _MAX_CONDITION is used; None means there is none.
    """
    n = that.shape[0]
    eye = np.eye(n)
    a = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    a[:n, n:] = eye
    a[n:, :n] = -adjoint(that)
    a[n:, n:] = (2.0 * level) * eye
    b = np.zeros_like(a)
    b[:n, :n] = eye
    b[n:, n:] = that
    for shift in _SHIFTS:
        try:
            m = np.linalg.solve(a - shift * b, b)
        except np.linalg.LinAlgError:
            continue
        size_m = np.linalg.norm(m, 1)
        if size_m <= _MAX_CONDITION:
            break
    else:
        return None
    mu = np.linalg.eigvals(m)
    tol = _UNIMODULAR_TOL * math.sqrt(max(1.0, size_m))
    # z = shift + 1/mu = num/mu, so |z| = 1 exactly when |num| = |mu|
    num = shift * mu + 1.0
    size = np.abs(mu)
    on_circle = np.abs(np.abs(num) - size) <= tol * size
    return np.sort(np.angle(num[on_circle] * np.conj(mu[on_circle])) % _TWO_PI)


def numerical_radius(T, *, refine_tol: float = 1e-10) -> RadiusResult:
    """w(T) = max over theta of lambda_max(H(theta)), where
    H(theta) = Re(exp(i theta) T) = cos(theta) Re(T) - sin(theta) Im(T),
    by level sets (He & Watson 1997; Mengi & Overton 2005).

    The value r starts as the best lambda_max over eight seed angles.  Each
    level step finds every angle where r is an eigenvalue of H(theta) (the
    unimodular eigenvalues of z^2 T - 2 r z I + T*, see `_level_crossings`),
    evaluates lambda_max at the midpoints of the intervals between
    consecutive crossings in one batched eigvalsh, and raises r to the best
    of them.  Near a smooth maximum the midpoint lands within O(gap^2) of
    it, so r converges quadratically.  The pencil is built from
    T / max |T_ij|, so the unimodularity tolerance acts on a scale-free
    problem.

    The iteration stops when a level has no crossings (then, up to rounding,
    no angle rises above it: a certificate that r = w), or when its best
    midpoint raises r by at most `refine_tol` * max(1, r).  Where the pencil
    is too close to singular to resolve crossings (lambda_max flat to about
    1e-6 relative, as for square-zero or nilpotent T), the grid-and-golden
    optimizer `maximize_on_circle` (720 angles, 5 brackets) finishes the
    search and the better of the two results is kept.  The zero matrix
    gives exactly 0.

    `value` is lambda_max(H(argmax_theta)) as evaluated; ties go to the
    smallest angle in [0, 2 pi) among the evaluated maximizers.
    `achieved_interval` is the width of the interval between consecutive
    crossings, at the last level searched, that holds argmax_theta (0.0 when
    that level had none), or the final golden-section bracket when the grid
    finished the search.  `evaluations` counts the angles at which
    lambda_max was evaluated (one pencil eigensolve per level is extra).
    """
    arr = as_matrix(T, square=True)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        return RadiusResult(value=0.0, argmax_theta=0.0, achieved_interval=0.0,
                            evaluations=0)
    F = rotated_objective(arr, _top_eigenvalue, _top_eigenvalue)
    vals = F(_SEED_ANGLES)
    k = int(np.argmax(vals))
    value, theta = float(vals[k]), float(_SEED_ANGLES[k])
    evaluations = _SEED_ANGLES.size
    # real divisions: a complex one overflows for subnormal scales
    that = arr.real / scale + 1j * (arr.imag / scale)
    for _ in range(_MAX_LEVELS):
        cross = _level_crossings(that, value / scale)
        if cross is None:
            x, _, width, ev = maximize_on_circle(F, _TWO_PI, _FLAT_GRID, refine_tol,
                                                 _FLAT_BRACKETS)
            # evaluated again at the wrapped angle, so that value is
            # lambda_max(H(argmax_theta)) exactly
            x %= _TWO_PI
            v = F(x)
            evaluations += ev + 1
            if v > value or (v == value and x < theta):
                value, theta = v, x
            break
        if cross.size == 0:
            width = 0.0
            break
        ends = np.append(cross[1:], cross[0] + _TWO_PI)
        mids = (0.5 * (cross + ends)) % _TWO_PI
        vals = F(mids)
        evaluations += mids.size
        k = int(np.lexsort((mids, -vals))[0])
        gain = float(vals[k]) - value
        if gain > 0.0 or (gain == 0.0 and mids[k] < theta):
            value, theta = float(vals[k]), float(mids[k])
        j = int(np.searchsorted(cross, theta, side="right")) - 1
        width = float(ends[j] - cross[j])
        if gain <= refine_tol * max(1.0, value):
            break
    return RadiusResult(value=value, argmax_theta=theta,
                        achieved_interval=width, evaluations=evaluations)


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


def omega_radius(T, *, refine_tol: float = 1e-10) -> float:
    """w_Omega(T) = sqrt(2) w(T) (the Omega radius collapses to the
    numerical radius because Omega doubles to sqrt(2) times the operator
    norm on Hermitian matrices)."""
    return math.sqrt(2.0) * numerical_radius(T, refine_tol=refine_tol).value


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
