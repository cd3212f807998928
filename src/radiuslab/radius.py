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
intervals between crossings give the next level, and the iteration ends
when a level has no crossings or raises r by at most CIRCLE_TOL * max(1, r).
A pencil too close to singular to resolve crossings (flat lambda_max, as
for square-zero T) hands the search to the grid optimizer below.  Ties go
to the smallest angle.  `numerical_radius_many` runs the engine for a whole
stack in lockstep: per level one batched solve and eigvals for every matrix
still searching, the second shift solved only for the matrices whose first
one fails, and a bounded number of matrices at a time.  Its seeds,
midpoints and grid fallbacks are all values of lambda_max(H(theta)) taken
through the one rotated-stack kernel, `rotated_objective_many`, one call
per stage for the whole chunk.  `numerical_radius` is its one-matrix case,
and the wnum norm's `evaluate_many` calls it.  The operator norm (and
schatten:inf, the same norm) declares this engine as its radius
(`NormSpec.radius`, which takes a stack), because ||Re(exp(i theta) T)|| is
the larger of lambda_max(H(theta)) and lambda_max(H(theta + pi)); so
w_op(T) = w(T).

Every other supremum over one angle uses a uniform grid over the period
followed by golden-section refinement of the best few local brackets
(`maximize_on_circle`), which is derivative-free (eigenvalue branches may
cross non-smoothly) and deterministic.  Its settings are CIRCLE_GRID points
over 2 pi, brackets refined to width CIRCLE_TOL, and the CIRCLE_BRACKETS
best of them.  Because every norm satisfies N(-A) = N(A), the angle
objective has period pi; the optimizers exploit that only when the norm
declares it (`even` flag), never for user-supplied evaluators.

`maximize_on_circle_many` searches many objectives at once, and
`maximize_on_circle` is its one-objective case.  The objectives are one
function F(owner, angles) of two 1-d arrays, objective owner[k] at
angles[k]: the coarse grid calls it once on every objective's grid
angles, and the brackets of every objective are refined in lockstep, one
call per golden-section step on every live bracket's next probe.  Each
objective keeps its own grid, brackets and probe sequence, so its result
is bitwise the one it gets alone.  `rotated_objective_many` builds F on
cos(t) Re(T_j) - sin(t) Im(T_j) for a stack of matrices T_j, as one
chunked stack of operands per call through a batched evaluator (a norm's
`evaluate_many`), each chunk gathering its owners' parts; a one-matrix
stack, as in its one-matrix case `rotated_objective`, broadcasts them
instead.  It is the only code here that forms these operands, apart from
the test oracle `numerical_radius_oracle`.  `generalized_radius_many` and
`omega_radius_slow_many` are the radii of a whole stack, searched together
this way.

For Omega the supremum over the coefficient ball is attained on the sphere
(positive homogeneity) and the global phase of (zeta, eta) drops out of the
operator norm, so the search space is zeta = cos(s), eta = exp(i psi) sin(s)
with s in [0, pi/2] and psi in [0, 2 pi).  With
u = (cos 2s, sin 2s cos psi, sin 2s sin psi) on the unit sphere,
Omega(T)^2 = max over u of lambda_max(S + u_0 D + u_1 X - u_2 Y), four fixed
Hermitian matrices of T.  A coarse (s, psi) grid picks candidate cells, and
a safeguarded Newton ascent on the sphere refines them: one eigh gives
lambda_max, its gradient and its Hessian (eigenvalue perturbation), and a
cell typically converges in two to seven eigensolves.  The grid is searched
coarse to fine.  lambda_max(S + c.K) is convex in c on all of R^3 (the top
eigenvalue of an affine Hermitian family) and L-Lipschitz, L =
lambda_max(D^2 + X^2 + Y^2)^(1/2); so a node is bounded by the chord
between the coarser nodes around it plus L times its distance from the
chord.  Every point of the sphere lies within rho (the grid's chordal
covering radius) of a node, so it lies within rho^2 / 2 of the hull of the
nodes, and by convexity no point exceeds the best node by more than
L rho^2 / 2; where a node's bound falls below best - L rho^2 / 2 it is
never evaluated.  Every evaluated node is bitwise the full grid's, and the
candidates are the full grid's local maxima above best - L rho^2 / 2.
`omega_norm_many` runs grid, candidates and Newton for a whole stack of
matrices at once; it is the `evaluate_many` of the Omega norm, so a radius
with Omega as N solves each grid or golden-section step's operands
together.

Inside a `result_memo` block (`cli.cmd_compute` runs as one, and
`inequalities.run_suite` as one per trial) the stack searches
`numerical_radius_many`, `omega_norm_many`, the grid path `_circle_radii`
of `generalized_radius_many` and `omega_radius_slow_many` remember their
result for each matrix, norm and settings until the block ends; calls made
while one of them runs bypass the memo.  Each is wrapped by the one memo
decorator, `memo_per_matrix`, and each one-matrix radius is its stack
function applied to a one-matrix stack, so a stack searched ahead of time
serves the one-matrix calls that follow.  Outside a block nothing is
remembered.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    MatrixShapeError,
    NonFiniteEntry,
    adjoint,
    as_matrix,
    binary_scaled,
    binary_unscaled,
    frobenius_norm,
    im_part,
    re_part,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section probes per bracket, at most
_MAX_PROBES = 300
_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
# cap on complex entries held by one batched grid evaluation (2 MiB): a
# chunk stays in cache, and the process's peak memory does not hinge on how
# many operands or Omega nodes an input happens to need
_CHUNK_ENTRIES = 131_072

# The one-angle search: grid points over 2 pi (over pi for an even
# objective, at the same resolution), golden-section width, brackets refined
CIRCLE_GRID = 720
CIRCLE_TOL = 1e-10
CIRCLE_BRACKETS = 5
# The Omega search: (s, psi) grid, Newton's stopping step, candidate cells
# refined, and the cap on Newton rounds
OMEGA_GRID_S = 96
OMEGA_GRID_PSI = 192
OMEGA_TOL = 1e-9
OMEGA_CELLS = 5
_NEWTON_ROUNDS = 100

# The result memo of the running command: None outside `result_memo`, a dict
# inside it, and _BYPASS while a memoized function runs
_MEMO = contextvars.ContextVar("radiuslab_result_memo", default=None)
_BYPASS = object()


@contextlib.contextmanager
def result_memo():
    """Remember, for the calls made inside the block, the per-matrix results
    of every function wrapped by `memo_per_matrix`, and forget them when it
    ends.  A block opened while a memo is open (or a memoized call runs)
    changes nothing."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memo_key(fn, arr: np.ndarray, args: tuple, kwargs: dict) -> tuple:
    """The memo key of fn on the complex128 matrix arr with the other
    arguments args and kwargs: fn, the shape and blake2b digest of arr, the
    other arguments (a norm held by reference) and the keyword settings."""
    return (fn, arr.shape, hashlib.blake2b(arr.tobytes()).digest(), args,
            tuple(sorted(kwargs.items())))


def memo_per_matrix(fn):
    """fn(stack, *args, **kwargs), one result per matrix of a (m, n, n)
    stack, its results kept per matrix in the open result memo.

    The stack is checked by `_square_stack`, and fn gets it as a complex128
    array.  Inside an open memo, a matrix whose entry the memo holds gets
    it, and the others (each distinct matrix once, in stack order) are
    computed in one fn call while the memo is bypassed, then stored.  The
    key is `_memo_key` of fn itself, the function closed over here, so a
    rebinding of a module name never changes a key.  Outside a memo, and
    for every call made while a memoized function runs, fn is called on
    the whole stack.  A call that raises stores nothing; an unhashable
    argument stores nothing either.
    """
    @functools.wraps(fn)
    def wrapper(stack, *args, **kwargs) -> list:
        arrs = _square_stack(stack)
        memo = _MEMO.get()
        if memo is None or memo is _BYPASS:
            return fn(arrs, *args, **kwargs)
        keys = [_memo_key(fn, arr, args, kwargs) for arr in arrs]
        try:
            results = [memo.get(key) for key in keys]
        except TypeError:   # an unhashable argument: nothing is remembered
            results, keys = [None] * len(keys), None
        # each missing matrix once, in stack order
        todo = {}
        for k, hit in enumerate(results):
            if hit is None:
                todo.setdefault(k if keys is None else keys[k], []).append(k)
        if todo:
            firsts = [places[0] for places in todo.values()]
            token = _MEMO.set(_BYPASS)
            try:
                computed = fn(arrs[firsts], *args, **kwargs)
            finally:
                _MEMO.reset(token)
            for (key, places), result in zip(todo.items(), computed):
                if keys is not None:
                    memo[key] = result
                for k in places:
                    results[k] = result
        return results

    return wrapper


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
    """Optimized Omega norm with its maximizing (s, psi) coefficients, the
    length on the sphere of the last accepted refinement step, and the
    number of grid nodes evaluated plus eigensolves spent."""

    value: float
    argmax: tuple[float, float]
    achieved_cell: float
    evaluations: int


def maximize_on_circle(F, even: bool, grid: int = CIRCLE_GRID,
                       refine_tol: float = CIRCLE_TOL,
                       top_brackets: int = CIRCLE_BRACKETS):
    """Grid-plus-refinement maximum of an objective F of period 2 pi, or of
    period pi where `even` declares it; F maps a 1-d array of angles to
    their values.  Returns (argmax, value, final_width, evaluations).  This
    is the one-objective case of `maximize_on_circle_many`.
    """
    return maximize_on_circle_many(lambda owner, angles: F(angles), 1, even, grid,
                                   refine_tol, top_brackets)[0]


def maximize_on_circle_many(F, m: int, even: bool, grid: int = CIRCLE_GRID,
                            refine_tol: float = CIRCLE_TOL,
                            top_brackets: int = CIRCLE_BRACKETS) -> list:
    """`maximize_on_circle` of m objectives at once, in lockstep.

    F(owner, angles) takes two 1-d arrays of equal length and returns the
    value of objective owner[k] at angles[k] for each k.  Each objective is
    sampled in one F call for all of them at `points` uniform angles of one
    period, max(8, grid) over 2 pi or, for even objectives, max(8, grid // 2)
    over pi, and keeps the `top_brackets` best cyclic local maxima of its
    own samples (ties to the smaller angle).  Each bracket
    [center - h, center + h], h = period / points, is then refined by
    golden section to width `refine_tol` (at most _MAX_PROBES probes), every
    bracket of every objective in lockstep: each step makes one F call on
    the live brackets' next probes, so each bracket sees the probe sequence
    a scalar golden section would give it, whatever the other objectives
    do.  Returns, per objective, (argmax, value, final_width, evaluations);
    an objective's best evaluated point wins, ties to the smaller angle.
    """
    period = math.pi if even else _TWO_PI
    points = max(8, grid // 2 if even else grid)
    thetas = np.arange(points) * (period / points)
    vals = np.asarray(F(np.arange(m).repeat(points), np.tile(thetas, m)),
                      dtype=float).reshape(m, points)
    local = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    h = period / points
    # per objective, its brackets' seeds: (angle, value); per bracket:
    # [a, b, x1, f1, x2, f2, probes made, objective]
    seeds, brackets = [], []
    for k in range(m):
        row = vals[k]
        peaks = np.flatnonzero(local[k])
        if peaks.size == 0:
            peaks = np.array([int(np.argmax(row))])
        order = sorted(peaks.tolist(), key=lambda i: (-row[i], i))[: max(1, top_brackets)]
        seeds.append([(float(thetas[i]), float(row[i])) for i in order])
        for x, _ in seeds[-1]:
            a, b = x - h, x + h
            brackets.append([a, b, b - _INVPHI * (b - a), -math.inf,
                             a + _INVPHI * (b - a), -math.inf, 0, k])
    live = [s for s in brackets if s[1] - s[0] > refine_tol]
    # the objective of each live bracket, rebuilt only as brackets finish
    owners = np.array([s[7] for s in live], dtype=np.intp)
    if live:
        values = _values(F, np.concatenate((owners, owners)),
                         [s[2] for s in live] + [s[4] for s in live])
        for s, f1, f2 in zip(live, values, values[len(live):]):
            s[3], s[5], s[6] = f1, f2, 2
    live = [s for s in live if s[6] < _MAX_PROBES]
    while live:
        if len(live) < owners.size:
            owners = np.array([s[7] for s in live], dtype=np.intp)
        slots, probes = [], []
        for s in live:
            a, b, x1, f1, x2, f2, _, _ = s
            if f1 >= f2:   # keep [a, x2], probe anew left of x1
                s[1], s[4], s[5] = x2, x1, f1
                s[2] = x2 - _INVPHI * (x2 - a)
                probes.append(s[2])
                slots.append(3)
            else:          # keep [x1, b], probe anew right of x2
                s[0], s[2], s[3] = x1, x2, f2
                s[4] = x1 + _INVPHI * (b - x1)
                probes.append(s[4])
                slots.append(5)
        kept = []
        for s, k, v in zip(live, slots, _values(F, owners, probes)):
            s[k] = v
            s[6] += 1
            if s[1] - s[0] > refine_tol and s[6] < _MAX_PROBES:
                kept.append(s)
        live = kept
    results, first = [], 0
    for own in seeds:
        mine = brackets[first:first + len(own)]
        first += len(own)
        # a step drops only a probe that the kept one matches at a smaller
        # angle or beats, so each bracket's best probe is its x1 or x2
        candidates = [(-v, x, j) for j, (s, seed) in enumerate(zip(mine, own))
                      for x, v in [seed] + ([(s[2], s[3]), (s[4], s[5])] if s[6] else [])]
        neg_value, x, j = min(candidates)
        s = mine[j]
        results.append((x, -neg_value, s[1] - s[0], points + sum(s[6] for s in mine)))
    return results


def _values(F, owners: np.ndarray, angles: list) -> list:
    """F on an array of objectives and a list of angles, as a list of
    floats."""
    return np.asarray(F(owners, np.array(angles)), dtype=float).tolist()


def rotated_objective(T, evaluate_many):
    """The angle objective F(t) = N(Re(exp(i t) T)), the operand being
    cos(t) Re(T) - sin(t) Im(T), for the norm N whose batched evaluator is
    evaluate_many.  Im(exp(i t) T) = Re(exp(i (t - pi/2)) T) is
    F(t - pi/2).

    F takes a 1-d array of angles and returns the values of their operands.
    This is the one-matrix case of `rotated_objective_many`.
    """
    F = rotated_objective_many(np.asarray(T, dtype=np.complex128)[None], evaluate_many)
    return lambda angles: F(None, angles)


def rotated_objective_many(stack, evaluate_many):
    """The angle objectives of a (m, n, n) stack as one function
    F(owner, angles): N(Re(exp(i t) T_j)) at each pair (j, t) of the 1-d
    arrays owner and angles, evaluate_many mapping a stack of operands to
    their norms N.

    The operands cos(t) Re(T_j) - sin(t) Im(T_j) are built and evaluated a
    chunk of at most _CHUNK_ENTRIES entries at a time, one evaluate_many
    call per chunk, each chunk gathering its owners' Re and Im parts.  A
    one-matrix stack ignores owner and broadcasts its two parts, gathering
    nothing.
    """
    arrs = _square_stack(stack)
    adj = adjoint(arrs)
    re, im = (arrs + adj) / 2, (arrs - adj) / 2j
    single = arrs.shape[0] == 1
    if single:
        re, im = re[0], im[0]
    step = max(1, _CHUNK_ENTRIES // (arrs.shape[1] * arrs.shape[2]))

    def F(owner, angles):
        a, b = np.cos(angles)[:, None, None], np.sin(angles)[:, None, None]
        out = np.empty(angles.size)
        for lo in range(0, angles.size, step):
            hi = lo + step
            if single:
                operands = a[lo:hi] * re - b[lo:hi] * im
            else:
                mine = owner[lo:hi]
                operands = a[lo:hi] * re[mine] - b[lo:hi] * im[mine]
            out[lo:hi] = evaluate_many(operands)
            del operands  # freed before the next chunk is built
        return out

    return F


def generalized_radius(T, norm, *, grid: int = CIRCLE_GRID, refine_tol: float = CIRCLE_TOL,
                       top_brackets: int = CIRCLE_BRACKETS) -> RadiusResult:
    """w_N(T), the maximum of N(Re(exp(i theta) T)) over theta.

    A norm that declares its own radius gets it from `norm.radius`, and the
    settings are ignored: `op` and `schatten:inf` declare
    `numerical_radius_many`, since ||Re(exp(i theta) T)|| is the larger of
    lambda_max(H(theta)) and lambda_max(H(theta + pi)).  Every other norm
    goes through `maximize_on_circle` with these settings, over [0, pi) for
    norms declaring `even`.  This is the one-matrix case of
    `generalized_radius_many`.
    """
    return generalized_radius_many(np.asarray(T, dtype=np.complex128)[None], norm, grid=grid,
                                   refine_tol=refine_tol, top_brackets=top_brackets)[0]


def generalized_radius_many(stack, norm, *, grid: int = CIRCLE_GRID,
                            refine_tol: float = CIRCLE_TOL,
                            top_brackets: int = CIRCLE_BRACKETS) -> list[RadiusResult]:
    """w_N of each matrix of a (m, n, n) stack; see `generalized_radius`.

    A norm's own radius gets the whole stack in one `norm.radius` call.
    Otherwise the matrices are searched together by
    `maximize_on_circle_many`, one `evaluate_many` per grid or
    golden-section step for all of them.  Every result is bitwise the one
    `generalized_radius` gives for that matrix alone.
    """
    if norm.radius is not None:
        return norm.radius(stack)
    return _circle_radii(stack, norm, grid, refine_tol, top_brackets)


@memo_per_matrix
def _circle_radii(arrs, norm, grid, refine_tol, top_brackets) -> list[RadiusResult]:
    """The grid path of `generalized_radius` for each matrix of a stack."""
    F = rotated_objective_many(arrs, norm.evaluate_many)
    found = maximize_on_circle_many(F, arrs.shape[0], norm.even, grid, refine_tol, top_brackets)
    return [RadiusResult(value=v, argmax_theta=x % _TWO_PI, achieved_interval=width,
                         evaluations=evals) for x, v, width, evals in found]


def _square_stack(stack) -> np.ndarray:
    """A stack of square matrices as a C-contiguous (m, n, n) complex128
    array, checked for shape (n >= 1) and finite entries."""
    raw = np.ascontiguousarray(stack, dtype=np.complex128)
    if raw.ndim != 3 or raw.shape[1] != raw.shape[2] or raw.shape[1] == 0:
        raise MatrixShapeError(f"expected a stack of square matrices, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise NonFiniteEntry("matrix entries must be finite (no NaN/Inf)")
    return raw


def _top_eigenvalue(h):
    return np.linalg.eigvalsh(h)[..., -1]


# Level-set engine for w(T).  Seed angles: multiples of pi/4, so the
# maximizer of a Hermitian or skew-Hermitian T is a seed.
_SEED_ANGLES = np.arange(8) * (_TWO_PI / 8)
# Shift-invert poles: off the unit circle, where the crossings live, and off
# the real axis, where the other pencil eigenvalues of a Hermitian T lie.
# The second is tried only for the matrices whose first is (within ~1e-6 of)
# a pencil eigenvalue.
_SHIFTS = np.array([0.5 * cmath.exp(1.0j), 0.5 * cmath.exp(2.5j)])
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
# cap on the entries of the 2n x 2n pencils of the matrices searched
# together; the engine's working set is a small multiple of it
_PENCIL_ENTRIES = 8192
# w of the zero matrix, exactly
_ZERO_RADIUS = RadiusResult(value=0.0, argmax_theta=0.0, achieved_interval=0.0, evaluations=0)


def _shift_inverted(a: np.ndarray, b: np.ndarray, shift):
    """M = (a - shift b)^-1 b for each pencil of a stack, and ||M||_1; both
    NaN where a - shift b is exactly singular."""
    try:
        m = np.linalg.solve(a - shift * b, b)
    except np.linalg.LinAlgError:   # some pencil is singular: one at a time
        m = np.full_like(b, np.nan)
        for k in range(b.shape[0]):
            with contextlib.suppress(np.linalg.LinAlgError):
                m[k] = np.linalg.solve(a[k] - shift * b[k], b[k])
    return m, np.abs(m).sum(axis=-2).max(axis=-1)


def _pencils(thats: np.ndarray):
    """The linearized pencils A - z B of a (m, n, n) stack of matrices That,
    A = [[0, I], [-That*, 2 level I]] and B = diag(I, That); the level block
    of A is left to `_level_crossings`."""
    m, n = thats.shape[:2]
    eye = np.eye(n)
    a = np.zeros((m, 2 * n, 2 * n), dtype=np.complex128)
    a[:, :n, n:] = eye
    a[:, n:, :n] = -thats.conj().swapaxes(1, 2)
    b = np.zeros_like(a)
    b[:, :n, :n] = eye
    b[:, n:, n:] = thats
    return a, b


def _level_crossings(a: np.ndarray, b: np.ndarray, levels: np.ndarray):
    """The angles t in [0, 2 pi) at which levels[k] is an eigenvalue of
    Re(exp(i t) That_k), for the `_pencils` (a, b) of a stack of That; the
    level block of a is overwritten.

    Returns (angles, counts): each matrix's angles, sorted, one matrix after
    the other, and their number per matrix; -1 (and no angles) where double
    precision cannot resolve them.

    They are the unimodular eigenvalues z = exp(i t) of the quadratic pencil
    z^2 That - 2 level z I + That*, linearized with v = (x, z x) as
    A v = z B v.  One batched eigvals of M = (A - shift B)^-1 B gives
    mu = 1/(z - shift); a singular That only adds mu = 0 (infinite z).  A
    matrix takes the first shift with ||M||_1 <= _MAX_CONDITION; the second
    is solved only for the matrices whose first does not fit, and -1 means
    neither does.
    """
    m, n = a.shape[0], a.shape[1] // 2
    # the diagonal of the level block (a is C-contiguous, so this is a view)
    a.reshape(m, -1)[:, n * (2 * n + 1)::2 * n + 1] = 2.0 * levels[:, None]
    shift = _SHIFTS[0]
    mats, sizes = _shift_inverted(a, b, shift)
    solved = sizes <= _MAX_CONDITION
    if not solved.all():
        first_fits, todo = solved.copy(), np.flatnonzero(~solved)
        sub_a, sub_b = a[todo], b[todo]
        sub, sub_sizes = _shift_inverted(sub_a, sub_b, _SHIFTS[1])
        mats[todo], sizes[todo], solved[todo] = sub, sub_sizes, sub_sizes <= _MAX_CONDITION
        # each matrix's own shift, as a column
        shift = np.where(first_fits, shift, _SHIFTS[1])[solved, None]
        mats, sizes = mats[solved], sizes[solved]
    mu = np.linalg.eigvals(mats)
    tol = _UNIMODULAR_TOL * np.sqrt(np.maximum(1.0, sizes))
    # z = shift + 1/mu = num/mu, so |z| = 1 exactly when |num| = |mu|
    num = shift * mu + 1.0
    size = np.abs(mu)
    on_circle = np.abs(np.abs(num) - size) <= tol[:, None] * size
    rotor = num[on_circle] * np.conj(mu[on_circle])
    # the angle of z: np.angle, without its wrapper
    angles = np.arctan2(rotor.imag, rotor.real) % _TWO_PI
    counts = on_circle.sum(axis=1)
    if counts.size < m:
        counts = np.where(solved, 0, -1)
        counts[solved] = on_circle.sum(axis=1)
    return angles[np.lexsort((angles, on_circle.nonzero()[0]))], counts


def _level_set(raw: np.ndarray, scale: np.ndarray):
    """`numerical_radius` of each matrix of a (m, n, n) stack of nonzero
    matrices, scale being their largest entry moduli.  All matrices run in
    lockstep, and a matrix leaves as its search ends.  Every lambda_max is
    taken through one `rotated_objective_many` of the stack: the seeds, each
    level's midpoints, and the grid fallback of each level's flat matrices.

    Returns one (indices, value, argmax, width, evaluations) tuple of arrays
    per group of matrices whose searches ended together.
    """
    ids = np.arange(raw.shape[0])
    F = rotated_objective_many(raw, _top_eigenvalue)
    seeds = _SEED_ANGLES.size
    tops = F(ids.repeat(seeds), np.tile(_SEED_ANGLES, ids.size)).reshape(ids.size, seeds)
    k = tops.argmax(axis=1)
    value, theta = tops[ids, k], _SEED_ANGLES[k]
    evals = np.full(ids.size, seeds)
    # real divisions: a complex one overflows for subnormal scales
    a, b = _pencils(raw.real / scale[:, None, None] + 1j * (raw.imag / scale[:, None, None]))
    ended = []

    def leave(done, width):
        """Record the matrices whose search ended; the others' state."""
        ended.append(tuple(x[done] for x in (ids, value, theta, width, evals)))
        keep = ~done
        return (x[keep] for x in (ids, a, b, scale, value, theta, evals))

    for level in range(_MAX_LEVELS):
        cross, counts = _level_crossings(a, b, value / scale)
        if counts.min() <= 0:
            # no crossings (width 0), or the grid finishes the search
            width = np.zeros(ids.size)
            flat = np.flatnonzero(counts < 0)
            if flat.size:
                owners = ids[flat]
                found = maximize_on_circle_many(lambda own, angles: F(owners[own], angles),
                                                flat.size, even=False)
                x, _, widths, ev = (np.array(f) for f in zip(*found))
                width[flat] = widths
                # each maximizer is evaluated again at the wrapped angle, so
                # that value is lambda_max(H(argmax))
                x %= _TWO_PI
                v = F(owners, x)
                evals[flat] += ev + 1
                higher = (v > value[flat]) | ((v == value[flat]) & (x < theta[flat]))
                value[flat[higher]], theta[flat[higher]] = v[higher], x[higher]
            done = counts <= 0
            if done.all():
                ended.append((ids, value, theta, width, evals))
                break
            ids, a, b, scale, value, theta, evals = leave(done, width)
            counts = counts[~done]
        # each matrix's crossings cross[first:stop] and the intervals between
        # consecutive ones, its last wrapping around
        stop = counts.cumsum()
        first = stop - counts
        ends = np.empty_like(cross)
        ends[:-1] = cross[1:]
        ends[stop - 1] = cross[first] + _TWO_PI
        mids = (0.5 * (cross + ends)) % _TWO_PI
        seg = np.arange(ids.size).repeat(counts)
        vals = F(ids[seg], mids)
        evals += counts
        best = np.lexsort((mids, -vals, seg))[first]
        top, mid = vals[best], mids[best]
        gain = top - value
        # the best midpoint wins if higher, or as high at a smaller angle
        # (a tie ends the search, so it is settled below)
        value = np.maximum(value, top)
        theta = np.where(gain > 0.0, mid, theta)
        done = gain <= CIRCLE_TOL * np.maximum(1.0, value)
        final = level == _MAX_LEVELS - 1
        if final or done.any():
            theta = np.where((gain == 0.0) & (mid < theta), mid, theta)
            # the interval holding theta; before the first crossing, the last
            below = np.add.reduceat(cross <= theta[seg], first, dtype=np.intp)
            hold = np.where(below > 0, first + below, stop) - 1
            width = ends[hold] - cross[hold]
            if final or done.all():
                ended.append((ids, value, theta, width, evals))
                break
            ids, a, b, scale, value, theta, evals = leave(done, width)
    return ended


@memo_per_matrix
def numerical_radius_many(stack) -> list[RadiusResult]:
    """w of each matrix of a (m, n, n) stack; see `numerical_radius`.

    The seeds and the level steps run for the matrices of a chunk in
    lockstep: one batched eigvalsh of the seeds, then per level one batched
    solve, eigvals and eigvalsh, a matrix leaving as its search ends.  The
    matrices whose pencils are too close to singular at a level finish on
    the grid together, in one `maximize_on_circle_many`.  A chunk holds at
    most _PENCIL_ENTRIES pencil entries, so the working set does not grow
    with the stack.  Every result is bitwise the one `numerical_radius`
    gives for that matrix alone.
    """
    m, n = stack.shape[:2]
    results = [_ZERO_RADIUS] * m
    step = max(1, _PENCIL_ENTRIES // (4 * n * n))
    for lo in range(0, m, step):
        chunk = stack[lo:lo + step]
        scale = np.abs(chunk).max(axis=(1, 2))
        nonzero = scale.nonzero()[0]
        if nonzero.size < scale.size:   # zero matrices keep w = 0
            if nonzero.size == 0:
                continue
            chunk, scale = chunk[nonzero], scale[nonzero]
        place = (nonzero + lo).tolist()
        for fields in _level_set(chunk, scale):
            ids, values, thetas, widths, evals = (f.tolist() for f in fields)
            for k, v, x, w, ev in zip(ids, values, thetas, widths, evals):
                results[place[k]] = RadiusResult(value=v, argmax_theta=x,
                                                 achieved_interval=w, evaluations=ev)
    return results


def numerical_radius(T) -> RadiusResult:
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
    midpoint raises r by at most CIRCLE_TOL * max(1, r).  Where the pencil
    is too close to singular to resolve crossings (lambda_max flat to about
    1e-6 relative, as for square-zero or nilpotent T), the grid-and-golden
    optimizer `maximize_on_circle` finishes the search over the full circle
    and the better of the two results is kept.  The zero matrix
    gives exactly 0.

    `value` is lambda_max(H(argmax_theta)) as evaluated; ties go to the
    smallest angle in [0, 2 pi) among the evaluated maximizers.
    `achieved_interval` is the width of the interval between consecutive
    crossings, at the last level searched, that holds argmax_theta (0.0 when
    that level had none), or the final golden-section bracket when the grid
    finished the search.  `evaluations` counts the angles at which
    lambda_max was evaluated (one pencil eigensolve per level is extra).
    This is the one-matrix case of `numerical_radius_many`.
    """
    return numerical_radius_many(np.asarray(T, dtype=np.complex128)[None])[0]


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


def alphabeta_radius(T, norm) -> float:
    """sup of N(alpha Re(T) + beta Im(T)) over the real unit circle
    (alpha, beta) = (cos t, sin t), which is the angle objective at -t;
    equals w_N(T)."""
    F = rotated_objective(T, norm.evaluate_many)
    _, v, _, _ = maximize_on_circle(lambda t: F(-t), norm.even)
    return float(v)


def _omega_basis(stack: np.ndarray) -> np.ndarray:
    """The four Hermitian matrices [S, D, X, -Y] along axis -3, for a matrix
    or each matrix of a stack, with S = (A*A + AA*)/2, D = (A*A - AA*)/2,
    X = Re(A*^2) and Y = Im(A*^2).

    With M = cos(s) A + exp(i psi) sin(s) A* and the point
    u = (cos 2s, sin 2s cos psi, sin 2s sin psi) of the unit sphere,
    M* M = S + u_0 D + u_1 X - u_2 Y, so ||M||^2 is the top eigenvalue of the
    combination of the basis with the weights (1, u) (`_omega_gram`).
    """
    at = adjoint(stack)
    sq = at @ at
    ata, aat, x = ((y + adjoint(y)) / 2 for y in (at @ stack, stack @ at, sq))
    return np.stack(((ata + aat) / 2, (ata - aat) / 2, x, (adjoint(sq) - sq) / 2j), axis=-3)


def _sphere_weights(s, psi) -> np.ndarray:
    """The weights (1, cos 2s, sin 2s cos psi, sin 2s sin psi) of the Omega
    Gram matrix at (s, psi), along a new last axis; the last three are the
    point u on the unit sphere."""
    two_s, psi = np.broadcast_arrays(2.0 * np.asarray(s, dtype=float), psi)
    return np.stack((np.ones_like(two_s), np.cos(two_s), np.sin(two_s) * np.cos(psi),
                     np.sin(two_s) * np.sin(psi)), axis=-1)


def _omega_gram(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The Gram matrices sum_k weights[..., k] basis[..., k, :, :].

    weights of shape (..., p, 4) against a C-contiguous basis of shape
    (..., 4, n, n), leading axes broadcast, give shape (..., p, n, n): one
    real matrix product, complex entries viewed as (re, im) float pairs.
    """
    n = basis.shape[-1]
    flat = basis.reshape(basis.shape[:-2] + (n * n,)).view(np.float64)
    gram = np.matmul(weights, flat).view(np.complex128)
    return gram.reshape(gram.shape[:-1] + (n, n))


# Strides of the nested lattices of the Omega half grid, coarsest first;
# strides not below the number of evaluated rows are left out
_OMEGA_STRIDES = (16, 8, 4, 2, 1)
# A node is evaluated where its bound reaches best - L rho^2 / 2 less this
# times best, the rounding of the grid's eigvalsh, so that every skipped node
# lies below best - L rho^2 / 2 on the full grid as well
_PRUNE_SLACK = 1e-12


@functools.lru_cache(maxsize=4)
def _omega_lattice(grid_s: int, grid_psi: int):
    """The coarse-to-fine schedule of the evaluated half (s <= pi/4) of the
    grid_s x grid_psi Omega grid, built once per grid shape on first use.

    Node i * grid_psi + j is (s_i, psi_j); the row s = 0 is one point of the
    sphere, node 0.  Returns (weights, levels, rho): the `_sphere_weights` of
    every node, shape (rows * grid_psi, 4); per lattice, coarsest first, the
    nodes it adds and, except for the first, their enclosing corners in the
    lattice before it (node indices, shape (q, 4)), the node's bilinear
    weights a between them in (s, psi) (shape (q, 4), non-negative, summing
    to 1, psi wrapping to 2 pi) and the residual |u - sum_c a_c u_c| (shape
    (q,)); and rho = hypot(ds, dpsi / 2), the chordal covering radius of
    the full grid: every point of the sphere lies within rho in u of a node.
    In polar angle theta = 2s and azimuth psi a nearest node is within
    dtheta = ds and dpsi / 2, and |p - q|^2 = 4 sin^2(dtheta / 2) +
    4 sin(theta) sin(theta') sin^2(dpsi / 2) <= dtheta^2 + dpsi^2.  A
    lattice of stride h holds the rows that are multiples of h, the last
    evaluated row and the columns that are multiples of h; the last lattice
    is the whole half grid.
    """
    rows = (grid_s + 1) // 2
    s_nodes = np.linspace(0.0, math.pi / 2, grid_s)
    p_nodes = np.arange(grid_psi) * (_TWO_PI / grid_psi)
    weights = _sphere_weights(s_nodes[:rows, None], p_nodes[None, :]).reshape(-1, 4)
    u = weights[:, 1:]
    strides = [h for h in _OMEGA_STRIDES if h < rows] or [1]
    known = np.zeros((rows, grid_psi), dtype=bool)
    levels = []
    for h in strides:
        lat_r = np.union1d(np.arange(0, rows, h), [rows - 1])
        lat_c = np.arange(0, grid_psi, h)
        new = np.zeros_like(known)
        new[np.ix_(lat_r, lat_c)] = True
        new &= ~known
        if not levels:
            new[0] = False
            nodes = np.concatenate(([0], np.flatnonzero(new)))
            levels.append((nodes, None, None, None))
        else:
            ii, jj = np.nonzero(new)
            r0 = prev_r[np.searchsorted(prev_r, ii, side="right") - 1]
            r1 = prev_r[np.searchsorted(prev_r, ii)]
            c0 = prev_c[np.searchsorted(prev_c, jj, side="right") - 1]
            c1 = np.append(prev_c, 0)[np.searchsorted(prev_c, jj)]
            corners = np.stack([np.where(r == 0, 0, r * grid_psi + c)
                                for r in (r0, r1) for c in (c0, c1)], axis=1)
            # bilinear weights in (s, psi), the wrapped column c1 = 0 at 2 pi
            ts = (ii - r0) / np.maximum(r1 - r0, 1)
            tp = (jj - c0) / np.maximum((c1 - c0) % grid_psi, 1)
            a = np.stack(((1 - ts) * (1 - tp), (1 - ts) * tp, ts * (1 - tp), ts * tp), axis=1)
            nodes = ii * grid_psi + jj
            resid = np.linalg.norm(u[nodes] - np.einsum("qc,qck->qk", a, u[corners]), axis=1)
            levels.append((nodes, corners, a, resid))
        known[np.ix_(lat_r, lat_c)] = True
        known[0] = True
        prev_r, prev_c = lat_r, lat_c
    rho = math.hypot(math.pi / 2 / (grid_s - 1), math.pi / grid_psi)
    return weights, levels, rho


def _node_tops(weights: np.ndarray, mats: np.ndarray, need: np.ndarray) -> np.ndarray:
    """lambda_max of the Gram matrix at each node (weights of shape (q, 4))
    for each matrix (basis stack mats of shape (m, 4, n, n)) where need
    (shape (m, q)) holds, and -inf elsewhere.

    Each chunk's Gram stack is one `_omega_gram` of the union of its
    matrices' needed nodes, from which the needed pairs are gathered for one
    batched eigvalsh; the two hold at most _CHUNK_ENTRIES entries together,
    and a chunk is freed before the next is built, so the working set does
    not grow with the number of needed nodes.  A product of at least two
    rows takes the same gemm whatever the rows, so each value is bitwise
    the one a full-grid product gives; a one-row product would take numpy's
    gemv, which rounds differently, so a lone node is doubled.
    """
    m, q = need.shape
    n = mats.shape[-1]
    out = np.full((m, q), -np.inf)
    cols = np.flatnonzero(need.any(axis=0))
    step = max(2, _CHUNK_ENTRIES // (2 * n * n))
    group = max(1, step // max(1, cols.size))
    for g in range(0, m, group):
        for a in range(0, cols.size, step):
            c = cols[a:a + step]
            sub = need[g:g + group, c]
            w = weights[c] if c.size > 1 else np.repeat(weights[c], 2, axis=0)
            gram = _omega_gram(w, mats[g:g + group])[:, :c.size]
            picked = gram.reshape(-1, n, n) if sub.all() else gram[sub]
            tops = np.full(sub.shape, -np.inf)
            tops[sub] = np.linalg.eigvalsh(picked)[:, -1]
            out[g:g + group, c] = tops
            del gram, picked  # freed before the next chunk is built
    return out


def _omega_grid(basis: np.ndarray, grid_s: int, grid_psi: int):
    """lambda_max(G(u)) = ||cos(s) A + exp(i psi) sin(s) A*||^2 at the nodes
    of the grid_s x grid_psi grid that can hold the maximum, for the basis
    of each matrix of a (m, 4, n, n) stack.

    Only the rows s <= pi/4 are searched: the matrices at (s, psi) and
    (pi/2 - s, psi) are adjoints of each other up to a unit phase.  They are
    searched coarse to fine over the lattices of `_omega_lattice`.  G is
    affine in u, so lambda_max(G) is convex on all of R^3, and by Weyl's
    inequality and Cauchy-Schwarz lambda_max(G(u)) <= lambda_max(G(c)) +
    L |u - c| for any c, with L = lambda_max(D^2 + X^2 + Y^2)^(1/2).  So a
    node u of a finer lattice, with bilinear weights a between its enclosing
    corners u_c, is bounded by the chord sum_c a_c lambda_max(G(u_c)) plus
    L |u - sum_c a_c u_c| (a skipped corner's bound standing in for its
    value), and it is evaluated only where that bound reaches
    best - L rho^2 / 2 (less the rounding margin _PRUNE_SLACK best), best
    being the highest node evaluated so far.  Every point of the sphere
    lies within rho of a node of the full grid (mirrored half included), so
    each face of the nodes' convex hull, with unit normal nu and offset d,
    has d >= nu . v >= 1 - rho^2 / 2 for the node v nearest to nu; the ray
    to a sphere point p meets the hull at a convex combination c of nodes
    with |p - c| <= rho^2 / 2, and lambda_max(G(p)) <= lambda_max(G(c)) +
    L rho^2 / 2 <= (the best node) + L rho^2 / 2.  A skipped node lies below
    that floor, and so cannot be the best node or above the floor.  Each
    matrix keeps its own bounds and best; the stack's needed nodes are
    evaluated together (`_node_tops`).

    Returns (tops of shape (m, rows, grid_psi), -inf at every skipped node
    and row 0 filled with the one value at s = 0; floor = best -
    L rho^2 / 2, of shape (m,); nodes evaluated per matrix, row 0 counting
    once).
    """
    weights, levels, rho = _omega_lattice(grid_s, grid_psi)
    m, n = basis.shape[0], basis.shape[-1]
    k = basis[:, 1:]
    lip = np.sqrt(np.maximum(np.linalg.eigvalsh((k @ k).sum(axis=1))[:, -1], 0.0))
    margin = lip * rho**2 / 2
    # per node: its value where evaluated, else its bound
    bound = np.full((m, weights.shape[0]), -np.inf)
    done = np.zeros(bound.shape, dtype=bool)
    best = np.full(m, -np.inf)
    for nodes, corners, a, resid in levels:
        if corners is None:
            est = np.full((m, nodes.size), np.inf)
        else:
            est = np.einsum("qc,mqc->mq", a, bound[:, corners]) + lip[:, None] * resid
        need = est >= ((1.0 - _PRUNE_SLACK) * best - margin)[:, None]
        tops = _node_tops(weights[nodes], basis, need)
        bound[:, nodes] = np.where(need, tops, est)
        done[:, nodes] = need
        best = np.maximum(best, tops.max(axis=1, initial=-np.inf))
    half = np.where(done, bound, -np.inf).reshape(m, -1, grid_psi)
    half[:, 0] = half[:, 0, :1]
    return half, best - margin, done.sum(axis=1)


def _grid_candidates(half: np.ndarray, floor: np.ndarray, grid_s: int, top_cells: int):
    """(matrix, i, j) of the `top_cells` best grid local maxima of each
    matrix whose lambda_max is at least its floor, best grid value
    ||.|| = sqrt(lambda_max) first, then smaller s, then smaller psi.

    half (shape (m, rows, grid_psi)) and floor (best - L rho^2 / 2, no
    point of the sphere exceeding best by more than L rho^2 / 2) are
    `_omega_grid`'s.  A local maximum is at least every cell of its 3 x 3
    neighbourhood, psi wrapping around and the row past the last evaluated
    one mirrored from row grid_s - 1 - rows.  A node below the floor,
    skipped or not, is below every such node and counts as -inf.  Row 0
    (s = 0) is one point, whatever psi: it counts once, as cell (0, 0), when
    it is at least all of row 1.
    """
    rows = half.shape[1]
    above = half >= floor[:, None, None]
    vals = np.where(above, np.sqrt(np.maximum(half, 0.0)), -np.inf)
    ext = np.concatenate((vals, vals[:, grid_s - 1 - rows][:, None]), axis=1)
    up = np.concatenate((ext[:, :1], ext[:, :-1]), axis=1)
    hood = np.maximum(np.maximum(up, ext), np.concatenate((ext[:, 1:], ext[:, -1:]), axis=1))
    hood = np.maximum(np.maximum(np.roll(hood, 1, axis=2), hood), np.roll(hood, -1, axis=2))
    local = (vals >= hood[:, :rows]) & above
    local[:, 0] = False
    local[:, 0, 0] = above[:, 0, 0] & (vals[:, 0, 0] >= vals[:, 1].max(axis=1))
    kk, ii, jj = np.nonzero(local)
    order = np.lexsort((jj, ii, -vals[kk, ii, jj], kk))
    kk, ii, jj = kk[order], ii[order], jj[order]
    keep = np.arange(kk.size) - np.searchsorted(kk, kk) < max(1, top_cells)
    return kk[keep], ii[keep], jj[keep]


def _sphere_eigh(basis: np.ndarray, u: np.ndarray):
    """Ascending eigenvalues and eigenvectors of G(u) = K_0 + sum_i u_i K_(i+1)
    for each cell: basis of shape (c, 4, n, n), u of shape (c, 3)."""
    weights = np.concatenate((np.ones((u.shape[0], 1)), u), axis=1)
    return np.linalg.eigh(_omega_gram(weights[:, None, :], basis)[:, 0])


# Newton needs lambda_1 - lambda_2 above this times max(1, lambda_1) (the
# Hessian divides by eigenvalue gaps)
_NEWTON_GAP = 1e-12
# a Newton point counts as not lowering lambda_max unless it is lower by
# more than this times max(1, lambda_1): the rounding of eigh, which would
# otherwise reject converged Newton points and stop on a shorter ascent step
_NEWTON_DROP = 1e-14


def _sphere_step(basis: np.ndarray, u: np.ndarray, lam: np.ndarray, vecs: np.ndarray):
    """The next point from each cell's eigendecomposition of G(u): the
    Riemannian Newton point where the tangent Hessian is negative definite
    and the top eigenvalue is simple, otherwise the ascent point v / |v|.
    Returns (next u, gradient v, Newton taken).

    With x the top eigenvector, lambda_1 has gradient v_i = x* K_i x and
    Hessian 2 sum_k Re[(x* K_i x_k)(x_k* K_j x)] / (lambda_1 - lambda_k)
    in u (eigenvalue perturbation; G is linear in u).  On the sphere the
    gradient is projected to the tangent plane and the Hessian loses
    (u . v) I.
    """
    count, n = lam.shape
    x = vecs[..., -1]
    kx = (basis[:, 1:] @ x[:, None, :, None])[..., 0]
    v = (np.conj(x)[:, None, :] * kx).real.sum(axis=-1)
    top = lam[:, -1]
    gap = top - lam[:, -2] if n > 1 else np.full(count, math.inf)
    simple = gap > _NEWTON_GAP * np.maximum(1.0, top)
    coef = np.swapaxes(np.conj(vecs[..., :-1]), 1, 2) @ np.swapaxes(kx, 1, 2)
    denom = np.where(simple[:, None], top[:, None] - lam[:, :-1], 1.0)
    hess = 2.0 * (np.swapaxes(np.conj(coef), 1, 2) @ (coef / denom[..., None])).real
    # the tangent Hessian with eigenvalue 1 added along u: one 3 x 3 eigh
    # tells whether it is negative definite (two negative eigenvalues) and
    # solves for the Newton step, which stays in the tangent plane
    normal = u[:, :, None] * u[:, None, :]
    proj = np.eye(3) - normal
    uv = (u * v).sum(axis=1)
    mu, q = np.linalg.eigh(proj @ hess @ proj - uv[:, None, None] * proj + normal)
    newton = simple & (mu[:, 1] < 0.0)
    coords = (np.swapaxes(q, 1, 2) @ (proj @ v[:, :, None]))[..., 0]
    step = q @ (coords / np.where(newton[:, None], mu, 1.0))[:, :, None]
    un = u - step[..., 0]
    un /= np.linalg.norm(un, axis=1)[:, None]
    return np.where(newton[:, None], un, _ascent_point(u, v)), v, newton


def _ascent_point(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v / |v|, which never lowers lambda_max: lambda_max(G(u')) >= x* G(u') x
    = x* S x + u' . v, and u' . v = |v| >= u . v; u itself where v = 0."""
    size = np.linalg.norm(v, axis=1)[:, None]
    return np.where(size > 0.0, v / np.where(size > 0.0, size, 1.0), u)


def _newton_on_sphere(basis, owner, u, width, refine_tol):
    """Safeguarded Newton ascent of lambda_max(G(u)) over the unit sphere,
    all cells in lockstep: one batched eigh of the live cells per round.

    A cell starts at u with the step length `width`, and its start is
    accepted whatever its eigh gives.  After that a Newton point is accepted
    only if lambda_max does not drop there (by more than _NEWTON_DROP,
    relative); otherwise the cell goes to the ascent point from its last
    accepted u instead.  A cell
    converges once it accepts a step of length at most `refine_tol`.  It
    also stops once its last accepted u lies within its start `width` of a
    converged cell of the same matrix (equal `owner`, which must be sorted)
    whose value is not lower: at the grid's resolution the two share one
    peak, and this ends ascent-point crawls along a ridge beside it.  No
    cell runs more than _NEWTON_ROUNDS rounds.  Returns (u, lam1, width,
    eigensolves) per cell, `width` being the length of the last accepted
    step.
    """
    u, width = u.copy(), width.copy()
    lam1 = np.zeros(u.shape[0])   # set by each cell's first, accepted round
    reach = width.copy()
    grad = np.zeros_like(u)
    trial, pending = u.copy(), width.copy()
    sure = np.ones(u.shape[0], dtype=bool)   # trial cannot lower lambda_max
    solves = np.zeros(u.shape[0], dtype=int)
    converged = np.zeros(u.shape[0], dtype=bool)
    # every cell's same-matrix cells, padded with the cell itself
    first = np.searchsorted(owner, owner)
    end = np.searchsorted(owner, owner, side="right")
    mates = first[:, None] + np.arange(int((end - first).max(initial=0)))
    mates = np.where(mates < end[:, None], mates, np.arange(owner.size)[:, None])
    live = np.arange(u.shape[0])
    for _ in range(_NEWTON_ROUNDS):
        if live.size == 0:
            break
        lam, vecs = _sphere_eigh(basis[live], trial[live])
        solves[live] += 1
        floor = lam1[live] - _NEWTON_DROP * np.maximum(1.0, lam1[live])
        ok = sure[live] | (lam[:, -1] >= floor)
        acc, rej = live[ok], live[~ok]
        u[acc], lam1[acc], width[acc] = trial[acc], lam[ok, -1], pending[acc]
        nxt, grad[acc], newton = _sphere_step(basis[acc], u[acc], lam[ok], vecs[ok])
        trial[acc], sure[acc] = nxt, ~newton
        trial[rej], sure[rej] = _ascent_point(u[rej], grad[rej]), True
        pending[live] = np.linalg.norm(trial[live] - u[live], axis=1)
        finished = ok & (width[live] <= refine_tol)
        converged[live[finished]] = True
        live = live[~finished]
        m = mates[live]
        beside = (converged[m] & (lam1[m] >= lam1[live, None])
                  & (np.linalg.norm(u[m] - u[live, None], axis=2) <= reach[live, None]))
        live = live[~beside.any(axis=1)]
    return u, lam1, width, solves


@memo_per_matrix
def omega_norm_many(stack, *, grid_s: int = OMEGA_GRID_S, grid_psi: int = OMEGA_GRID_PSI,
                    refine_tol: float = OMEGA_TOL,
                    top_cells: int = OMEGA_CELLS) -> list[OmegaResult]:
    """Omega of each matrix of a (m, n, n) stack; see `omega_norm`.

    The grid, the candidate cells and the Newton refinement run for the
    whole stack at once, and every result is bitwise the one `omega_norm`
    gives for that matrix alone.
    """
    if grid_s < 4 or grid_psi < 4:
        raise ValueError("omega grids need at least 4 points per axis")
    if stack.shape[0] == 0:
        return []
    scaled, exponent = binary_scaled(stack)
    basis = _omega_basis(scaled)
    half_pi = math.pi / 2
    s_nodes = np.linspace(0.0, half_pi, grid_s)
    p_nodes = np.arange(grid_psi) * (_TWO_PI / grid_psi)
    tops, floor, points = _omega_grid(basis, grid_s, grid_psi)

    owner, ii, jj = _grid_candidates(tops, floor, grid_s, top_cells)
    start = _sphere_weights(s_nodes[ii], p_nodes[jj])[:, 1:]
    cell = 2.0 * max(half_pi / (grid_s - 1), _TWO_PI / grid_psi)
    u, lam1, width, solves = _newton_on_sphere(basis[owner], owner, start,
                                               np.full(owner.size, cell), refine_tol)

    # per matrix, the highest lambda_max; ties to the earlier candidate
    order = np.lexsort((np.arange(owner.size), -lam1, owner))
    best = order[np.searchsorted(owner[order], np.arange(stack.shape[0]))]
    evaluations = points + np.bincount(owner, weights=solves, minlength=stack.shape[0])
    values = binary_unscaled(np.sqrt(np.maximum(lam1[best], 0.0)), exponent).tolist()
    results = []
    for k, c in enumerate(best):
        u0, u1, u2 = u[c].tolist()
        radial = math.hypot(u1, u2)
        # psi is no coordinate at the pole s = 0, reached up to rounding: 0 there
        psi = math.atan2(u2, u1) % _TWO_PI if radial > _EPS else 0.0
        results.append(OmegaResult(
            value=values[k],
            argmax=(0.5 * math.atan2(radial, u0), psi if psi < _TWO_PI else 0.0),
            achieved_cell=float(width[c]), evaluations=int(evaluations[k])))
    return results


def omega_norm(T, **opts) -> OmegaResult:
    """Omega(T): maximize ||cos(s) T + exp(i psi) sin(s) T*||; `opts` are
    the keyword options of `omega_norm_many`.

    With u = (cos 2s, sin 2s cos psi, sin 2s sin psi) on the unit sphere,
    ||.||^2 = lambda_max(G(u)), G(u) = S + u_0 D + u_1 X - u_2 Y, the four
    Hermitian matrices coming from `_omega_basis`.  A grid_s x grid_psi
    grid over [0, pi/2] x [0, 2 pi) (by default OMEGA_GRID_S x
    OMEGA_GRID_PSI; only its rows s <= pi/4 are searched, the rest mirrored)
    gives the candidates.  It is searched coarse to fine (`_omega_grid`):
    a node is evaluated only where its chord bound from the coarser nodes
    around it (convexity of lambda_max in u, plus L times the node's
    distance from the chord) reaches best - L rho^2 / 2, best being the
    highest node evaluated so far, L the Lipschitz constant of lambda_max
    in u and rho the grid's chordal covering radius; by convexity no point
    of the sphere exceeds the best node by more than L rho^2 / 2, so
    Omega(T)^2 <= best + L rho^2 / 2.  The candidates are the `top_cells`
    best distinct grid local maxima whose lambda_max is at least
    best - L rho^2 / 2, best grid value first, then smaller s, then
    smaller psi.
    Each is refined by a safeguarded Newton ascent on the sphere
    (`_newton_on_sphere`): one eigh of G(u) gives lambda_max, its gradient
    and its Hessian; the Newton point is taken where the tangent Hessian is
    negative definite, the top eigenvalue simple and lambda_max does not
    drop, and the ascent point v / |v| otherwise.  A cell stops once it
    accepts a step of length at most `refine_tol` (OMEGA_TOL by default), or
    after _NEWTON_ROUNDS eigensolves.  The highest refined value wins, ties
    to the earlier candidate.

    The search runs on T scaled by a power of two so its largest entry part
    lies in [1/2, 1), and the value is scaled back (inf past the float
    range), so no Gram entry overflows or underflows.  The global phase of
    the coefficient pair drops out (zeta is kept real non-negative).

    `value` is sqrt(lambda_max(G(u))) at the returned u, whose (s, psi) is
    `argmax` (psi = 0 where u is the pole s = 0 up to rounding);
    `achieved_cell` is the length in u of the last accepted step
    (2 max(ds, dpsi), the grid cell, without refinement); `evaluations`
    counts the grid nodes evaluated (the row s = 0 once) plus eigensolves.
    This is the one-matrix case of `omega_norm_many`.
    """
    return omega_norm_many(np.asarray(T, dtype=np.complex128)[None], **opts)[0]


# Reduced (but still refined) settings for the slow w_Omega path: the
# outer objective is the smooth numerical-radius objective scaled by
# sqrt(2) and the inner Omega evaluations act on Hermitian matrices, so
# coarse grids localize the maxima; golden section (outer) and Newton
# (inner) recover the precision, and a bracket or step of width w costs only
# O(w^2) in value.
SLOW_OMEGA_OUTER = {"grid": 96, "refine_tol": 1e-6, "top_brackets": 3}
SLOW_OMEGA_INNER = {"grid_s": 13, "grid_psi": 24, "refine_tol": 1e-4, "top_cells": 2}


def omega_radius(T) -> float:
    """w_Omega(T) = sqrt(2) w(T) (the Omega radius collapses to the
    numerical radius because Omega doubles to sqrt(2) times the operator
    norm on Hermitian matrices)."""
    return math.sqrt(2.0) * numerical_radius(T).value


def omega_radius_slow(T) -> RadiusResult:
    """w_Omega(T) computed the long way: the grid path of generalized_radius
    with the Omega norm itself as N, at the SLOW_OMEGA_* settings.
    Cross-validates omega_radius.  This is the one-matrix case of
    `omega_radius_slow_many`."""
    return omega_radius_slow_many(np.asarray(T, dtype=np.complex128)[None])[0]


@memo_per_matrix
def omega_radius_slow_many(stack) -> list[RadiusResult]:
    """`omega_radius_slow` of each matrix of a (m, n, n) stack, all of them
    searched together: every grid or golden-section step is one
    `omega_norm_many` call on the operands of every matrix.  Every result is
    bitwise the one-matrix one."""
    from .norms import omega_norm_spec

    return _circle_radii(stack, omega_norm_spec(**SLOW_OMEGA_INNER), **SLOW_OMEGA_OUTER)


def hs_radius_sq(T) -> float:
    """The squared Hilbert-Schmidt radius identity:
    w_2(T)^2 = ||T||_F^2 / 2 + |tr(T^2)| / 2.

    The right side scales quadratically in T, so this is an identity for
    the square of the Frobenius-norm radius; the test suite verifies
    generalized_radius(T, Frobenius)^2 against it.  It is computed on
    `binary_scaled(T)` and scaled back, so it overflows to inf or underflows
    to 0 only where the squared value itself is out of range.
    """
    arr, exponent = binary_scaled(as_matrix(T, square=True))
    tr_sq = complex(np.einsum("ij,ji->", arr, arr))
    return float(binary_unscaled(0.5 * frobenius_norm(arr) ** 2 + 0.5 * abs(tr_sq), 2 * exponent))
