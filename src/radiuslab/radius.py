"""Optimizers for the numerical radius and its relatives.

All quantities here are suprema of smooth-enough objectives over one or two
angles:

* ``w(T) = sup_theta || Re(exp(i theta) T) ||`` (numerical radius),
* ``w_N(T) = sup_theta N(Re(exp(i theta) T))`` for a pluggable norm N,
* ``Omega(T) = sup { || zeta T + eta T* || : |zeta|^2 + |eta|^2 <= 1 }``,
* ``w_Omega(T) = sqrt(2) w(T)``.

w(T) has its own engine, `numerical_radius`: a level-set iteration on
lambda_max(H(theta)), H(theta) = Re(exp(i theta) T).  A T equal to its
adjoint bitwise (on its binary-scaled copy) never enters it: Hermitian T is
normal, so w(T) = ||T|| = max(lambda_max(T), -lambda_min(T)), from one
eigvalsh at angle 0.  That answers every operand of the wnum norm, which
are all Hermitian.  A level r is an
eigenvalue of some H(theta) exactly when z = exp(i theta) is a unimodular
eigenvalue of the quadratic pencil z^2 T - 2 r z I + T*.  One shift-inverted
2n x 2n eigensolve (shift 0.5 exp(i), off the unit circle and off the real
axis, with a second shift tried when it sits on a pencil eigenvalue) finds
every crossing of a level; eigenvalues within 1e-6 sqrt(max(1, ||M||_1)) of
the unit circle count, M being the shift-inverted matrix of the pencil.  The
midpoints of the intervals between crossings give the next level, and the
iteration ends when a level has no crossings or raises r by at most
CIRCLE_TOL * max(1, r), r taken on the binary-scaled T (see below).
A pencil too close to singular to resolve crossings (flat lambda_max, as
for square-zero T) gets a disk test first: det(r' I - H(theta)) is a
trigonometric polynomial of degree n, and its coefficients, from the
spectra at N >= 2n + 1 uniform angles, can prove that no angle reaches
r' = r + CIRCLE_TOL * max(1, r) (`_disk_certified`).  Only the matrices it
does not certify hand the search to the grid optimizer below.  Ties go
to the smallest angle.  `numerical_radius_many` runs the engine for a whole
stack in lockstep: per level one batched solve and eigvals for every matrix
still searching, the second shift solved only for the matrices whose first
one fails, and a bounded number of matrices at a time.  Its Hermitian
spectra, seeds, midpoints, disk-test spectra and grid fallbacks are all
eigenvalues of H(theta) taken through the one rotated-stack kernel,
`rotated_objective_many`, one call per stage for the whole chunk.
`numerical_radius` is its one-matrix case, and the wnum norm's
`evaluate_many` calls it.  The operator norm (and
schatten:inf, the same norm) declares this engine as its radius
(`NormSpec.radius`, which takes a stack), because ||Re(exp(i theta) T)|| is
the larger of lambda_max(H(theta)) and lambda_max(H(theta + pi)); so
w_op(T) = w(T).

Every other supremum over one angle uses a uniform grid over the period
followed by Brent's method on the best few local brackets
(`maximize_on_circle_many`), which is derivative-free (eigenvalue branches
may cross non-smoothly) and deterministic.  Brent's method (1973, ch. 5)
steps to the vertex of the parabola through the three best points of a
bracket where that step is trusted, so it converges superlinearly at a
smooth peak, and takes a section step into the larger part of the bracket
where it is not, as at a kink.  Its settings are CIRCLE_GRID points over
2 pi, brackets refined to width CIRCLE_TOL, and the CIRCLE_BRACKETS best of
them (coarser for the slow Omega radius).  Every norm satisfies
N(-A) = N(A) by homogeneity, so the angle objective of a radius has period
pi, and it is searched over [0, pi).

`maximize_on_circle_many` searches many objectives at once, and
`maximize_on_circle` is its one-objective case.  The objectives are one
function F(owner, angles) of two 1-d arrays, objective owner[k] at
angles[k]: the coarse grid calls it once on every objective's grid
angles, and the brackets of every objective are refined in lockstep, one
call per Brent step on every live bracket's next probe.  Each objective
keeps its own grid, brackets and probe sequence, so its result is bitwise
the one it gets alone.  `rotated_objective_many` builds F on
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
with Omega as N solves each grid or Brent step's operands together.

One scale rule serves every stack search (`numerical_radius_many` per
chunk, `_circle_radii` and so every grid-path w_N and slow Omega radius,
`omega_norm_many`, and the phase searches of `inequalities`): one
`binary_scaled` call puts each matrix's largest entry part in [1/2, 1), the
search runs on that copy, and one `binary_unscaled` call scales its values
back (inf past the float range).  Every tolerance then acts on a scale-free
problem, and f(2^k T) = 2^k f(T) exactly, argmax and evaluations unchanged,
wherever 2^k T and the value are in the normal range.

Inside a `result_memo` block (`cli.cmd_compute` runs as one, and
`inequalities.run_suite` as one per block) the stack searches
`numerical_radius_many`, `omega_norm_many`, the grid path `_circle_radii`
of `generalized_radius_many` and `omega_radius_slow_many` remember their
result for each matrix, norm and settings until the block ends; calls made
while one of them runs bypass the memo.  Each is wrapped by the one memo
decorator, `memo_per_matrix`, and each one-matrix radius is its stack
function applied to a one-matrix stack, so a stack searched ahead of time
serves the one-matrix calls that follow.  `search_ahead` searches ahead
whatever a block of calls will read, with no list of it: in its dry run a
memoized search that misses records the matrix and answers a blank (NaN)
result, and at its end each group of recorded matrices (one search, its
arguments and a matrix size) is searched as one stack.  Outside a block
nothing is remembered.
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

# Brent's section step: this fraction of the larger part of a bracket, taken
# where a parabola is not trusted
_SECTION = (3.0 - math.sqrt(5.0)) / 2.0
# probes per bracket, at most
_MAX_PROBES = 300
_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# cap on complex entries held by one batched grid evaluation (2 MiB): a
# chunk stays in cache, and the process's peak memory does not hinge on how
# many operands or Omega nodes an input happens to need
_CHUNK_ENTRIES = 131_072

# The one-angle search: grid points over 2 pi (over pi for an even
# objective, at the same resolution), final bracket width, brackets refined
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
# The searches a dry run asks for (`search_ahead`): None outside one, and
# inside it, per group, the missing matrices by memo key
_PENDING = contextvars.ContextVar("radiuslab_pending_searches", default=None)


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


def memo_per_matrix(blank):
    """Decorate fn(stack, *args, **kwargs), one result per matrix of a
    (m, n, n) stack, so that its results are kept per matrix in the open
    result memo; `blank` is what a dry run (`search_ahead`) answers for a
    matrix it has not searched.

    The stack is checked by `_square_stack`, and fn gets it as a complex128
    array.  Inside an open memo, a matrix whose entry the memo holds gets
    it, and the others (each distinct matrix once, in stack order) are
    computed in one fn call while the memo is bypassed, then stored.  The
    key is `_memo_key` of fn itself, the function closed over here, so a
    rebinding of a module name never changes a key.  Outside a memo, and
    for every call made while a memoized function runs, fn is called on
    the whole stack.  A call that raises stores nothing; an unhashable
    argument stores nothing either.  Inside a dry run of `search_ahead`
    nothing is computed: each matrix the memo misses is recorded for its
    group and answered `blank`, which is never stored.
    """
    def decorate(fn):
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
            pending = _PENDING.get()
            if pending is not None:
                # a dry run: each miss is recorded for its group, and answered blank
                settings = tuple(sorted(kwargs.items()))
                for key, hit, arr in zip(keys or (), results, arrs):
                    if hit is None:
                        group = pending.setdefault((wrapper, args, settings, arr.shape), {})
                        group.setdefault(key, arr)
                return [blank if hit is None else hit for hit in results]
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

    return decorate


@contextlib.contextmanager
def search_ahead():
    """Fill the open result memo with the memoized searches that the calls
    made inside the block would make, each group of them as one stack.

    The block is a dry run: a memoized search that misses computes nothing.
    It records each matrix it misses under (search, arguments, matrix
    shape) and answers it with its `blank` (NaN values, 0 evaluations),
    which is never stored.  When the block ends, each group is searched as
    one stack and its results stored per matrix; every stack search gives
    bitwise the one-matrix results, so the calls made again afterwards read
    what they would have computed.  A group whose search raises stores
    nothing, and the calls that need it search (and raise) on their own.
    Outside an open memo nothing is recorded, and the block runs as it is.
    """
    pending = {}
    token = _PENDING.set(pending)
    try:
        yield
    finally:
        _PENDING.reset(token)
    for (search, args, settings, _), missing in pending.items():
        with contextlib.suppress(Exception):
            search(np.stack(list(missing.values())), *args, **dict(settings))


@dataclass(frozen=True)
class RadiusResult:
    """Optimized radius: value, maximizing angle in [0, 2 pi), final bracket
    width, and the number of objective evaluations spent."""

    value: float
    argmax_theta: float
    achieved_interval: float
    evaluations: int


# what a dry run answers for a radius it has not searched
_BLANK_RADIUS = RadiusResult(math.nan, math.nan, math.nan, 0)


@dataclass(frozen=True)
class OmegaResult:
    """Optimized Omega norm with its maximizing (s, psi) coefficients, the
    length on the sphere of the last accepted refinement step, and the
    number of grid nodes evaluated plus eigensolves spent."""

    value: float
    argmax: tuple[float, float]
    achieved_cell: float
    evaluations: int


_BLANK_OMEGA = OmegaResult(math.nan, (math.nan, math.nan), math.nan, 0)


def maximize_on_circle(F, even: bool):
    """Grid-plus-refinement maximum of an objective F of period 2 pi, or of
    period pi where `even` declares it; F maps a 1-d array of angles to
    their values.  Returns (argmax, value, final_width, evaluations).  This
    is the one-objective case of `maximize_on_circle_many` at its defaults.
    """
    return maximize_on_circle_many(lambda owner, angles: F(angles), 1, even)[0]


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
    [center - h, center + h], h = period / points, starts at its grid point
    and is then refined by Brent's method (`_Bracket`) until it passes
    Brent's centred test, which implies a width of at most `refine_tol`,
    makes _MAX_PROBES probes, or holds no untried angle.  Every bracket of
    every objective is refined in lockstep: each step makes one F call on
    the live brackets' next probes, so each bracket sees the probe sequence
    a scalar Brent search would give it, whatever the other objectives do.
    Returns, per objective, (argmax, value, final_width, evaluations); an
    objective's best evaluated point wins, ties to the smaller angle.
    """
    period = math.pi if even else _TWO_PI
    points = max(8, grid // 2 if even else grid)
    thetas = np.arange(points) * (period / points)
    vals = np.asarray(F(np.arange(m).repeat(points), np.tile(thetas, m)),
                      dtype=float).reshape(m, points)
    local = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    h = period / points
    tol1 = refine_tol / 4
    brackets = []   # per objective, its brackets
    for k in range(m):
        row = vals[k]
        peaks = np.flatnonzero(local[k])
        if peaks.size == 0:
            peaks = np.array([int(np.argmax(row))])
        order = sorted(peaks.tolist(), key=lambda i: (-row[i], i))[: max(1, top_brackets)]
        brackets.append([_Bracket(k, float(thetas[i]), float(row[i]), h) for i in order])
    live = [s for own in brackets for s in own if s.aim(tol1)]
    # the objective of each live bracket, rebuilt only as brackets finish
    owners = np.array([s.owner for s in live], dtype=np.intp)
    while live:
        if len(live) < owners.size:
            owners = np.array([s.owner for s in live], dtype=np.intp)
        values = np.asarray(F(owners, np.array([s.u for s in live])), dtype=float).tolist()
        for s, v in zip(live, values):
            s.tell(v)
        live = [s for s in live if s.aim(tol1)]
    results = []
    for own in brackets:
        win = min(own, key=lambda s: (-s.fx, s.best))
        results.append((win.best, win.fx, win.b - win.a, points + sum(s.probes for s in own)))
    return results


class _Bracket:
    """One bracket of `maximize_on_circle_many`, refined by Brent's method
    for a maximum (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5): [a, b] holds x, the highest point evaluated in it, with
    value fx; w and v are the second and third highest, d the last step and
    e the one before.  It starts at its grid point x with its known value,
    w = v = x, so its first step needs no probe of x.

    Each step probes u, the vertex of the parabola through x, w and v where
    that vertex lies inside the bracket and the step is less than half the
    step before last, and otherwise a point _SECTION of the way from x into
    the larger part of the bracket.  A step is at least tol1 long, and a
    parabolic probe at least 2 tol1 from the ends.  x moves only to a
    higher value, so a tie never moves the bracket's centre; `best` is the
    smallest angle evaluated at the value fx.  u lies strictly inside
    (a, b) and is not x, and every angle probed before is x or outside
    (a, b), so no angle is probed twice.
    """

    __slots__ = ("owner", "a", "b", "x", "fx", "w", "fw", "v", "fv", "d", "e",
                 "u", "best", "probes")

    def __init__(self, owner: int, x: float, fx: float, h: float):
        self.owner, self.a, self.b = owner, x - h, x + h
        self.x = self.w = self.v = self.best = x
        self.fx = self.fw = self.fv = fx
        self.d = self.e = 0.0
        self.probes = 0

    def aim(self, tol1: float) -> bool:
        """Set the next probe u; False where the bracket is done: Brent's
        centred test |x - m| <= 2 tol1 - (b - a) / 2 holds (so
        b - a <= 4 tol1), it made _MAX_PROBES probes, or no angle but x lies
        in (a, b)."""
        a, b, x = self.a, self.b, self.x
        mid = 0.5 * (a + b)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a) or self.probes >= _MAX_PROBES:
            return False
        # the step from x to the end of the larger part of the bracket
        larger = (a if x - a >= b - x else b) - x
        parabolic = False
        if abs(self.e) > tol1:
            # the vertex x + p / q of the parabola through x, w and v
            r = (x - self.w) * (self.fx - self.fv)
            q = (x - self.v) * (self.fx - self.fw)
            p = (x - self.v) * q - (x - self.w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabolic = abs(p) < abs(0.5 * q * self.e) and q * (a - x) < p < q * (b - x)
        if parabolic:
            self.e, self.d = self.d, p / q
            if x + self.d - a < tol2 or b - (x + self.d) < tol2:
                self.d = tol1 if x < mid else -tol1
        else:
            self.e, self.d = larger, _SECTION * larger
        d = self.d
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0.0 else -tol1))
        if not (a < u < b and u != x):
            # a step below the spacing of floats at x: a section step, at
            # least to the next float
            self.e, self.d = larger, _SECTION * larger
            u = x + self.d
            if u == x:
                u = math.nextafter(x, x + larger)
        self.u = u
        return a < u < b

    def tell(self, fu: float) -> None:
        """Take the value fu of the probe u."""
        u, x = self.u, self.x
        self.probes += 1
        if fu > self.fx:
            if u < x:
                self.b = x
            else:
                self.a = x
            self.v, self.fv, self.w, self.fw = self.w, self.fw, x, self.fx
            self.x = self.best = u
            self.fx = fu
            return
        if fu == self.fx and u < self.best:
            self.best = u
        if u < x:
            self.a = u
        else:
            self.b = u
        if fu >= self.fw or self.w == x:
            self.v, self.fv, self.w, self.fw = self.w, self.fw, u, fu
        elif fu >= self.fv or self.v == x or self.v == self.w:
            self.v, self.fv = u, fu


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
    their norms N.  An evaluate_many that maps each operand to a row (such
    as eigvalsh, its spectrum) gives F a trailing axis.

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
            # built in place, so a chunk holds two operand-sized arrays at once
            if single:
                operands, part = a[lo:hi] * re, b[lo:hi] * im
            else:
                mine = owner[lo:hi]
                operands, part = re[mine], im[mine]
                operands *= a[lo:hi]
                part *= b[lo:hi]
            operands -= part
            del part
            vals = evaluate_many(operands)
            del operands  # freed before the next chunk is built
            if lo == 0:   # the first chunk gives the shape of a value
                out = np.empty((angles.size,) + np.shape(vals)[1:])
            out[lo:hi] = vals
        return out

    return F


def generalized_radius(T, norm) -> RadiusResult:
    """w_N(T), the maximum of N(Re(exp(i theta) T)) over theta.

    A norm that declares its own radius gets it from `norm.radius`: `op` and
    `schatten:inf` declare `numerical_radius_many`, since
    ||Re(exp(i theta) T)|| is the larger of lambda_max(H(theta)) and
    lambda_max(H(theta + pi)).  Every other norm goes through
    `maximize_on_circle_many` over [0, pi) at the CIRCLE_* settings.  This
    is the one-matrix case of `generalized_radius_many`.
    """
    return generalized_radius_many(np.asarray(T, dtype=np.complex128)[None], norm)[0]


def generalized_radius_many(stack, norm) -> list[RadiusResult]:
    """w_N of each matrix of a (m, n, n) stack; see `generalized_radius`.

    A norm's own radius gets the whole stack in one `norm.radius` call.
    Otherwise the matrices are searched together by
    `maximize_on_circle_many`, one `evaluate_many` per grid or Brent step
    for all of them.  Every result is bitwise the one
    `generalized_radius` gives for that matrix alone.
    """
    if norm.radius is not None:
        return norm.radius(stack)
    return _circle_radii(stack, norm, CIRCLE_GRID, CIRCLE_TOL, CIRCLE_BRACKETS)


@memo_per_matrix(_BLANK_RADIUS)
def _circle_radii(arrs, norm, grid, refine_tol, top_brackets) -> list[RadiusResult]:
    """The grid path of `generalized_radius`, at given settings, for each matrix of a stack."""
    scaled, exponent = binary_scaled(arrs)
    F = rotated_objective_many(scaled, norm.evaluate_many)
    found = maximize_on_circle_many(F, arrs.shape[0], True, grid, refine_tol, top_brackets)
    values = binary_unscaled(np.array([v for _, v, _, _ in found]), exponent).tolist()
    return [RadiusResult(value=v, argmax_theta=x % _TWO_PI, achieved_interval=width,
                         evaluations=evals) for (x, _, width, evals), v in zip(found, values)]


def _square_stack(stack) -> np.ndarray:
    """A stack of square matrices as a C-contiguous (m, n, n) complex128
    array, checked for shape (n >= 1) and finite entries."""
    raw = np.ascontiguousarray(stack, dtype=np.complex128)
    if raw.ndim != 3 or raw.shape[1] != raw.shape[2] or raw.shape[1] == 0:
        raise MatrixShapeError(f"expected a stack of square matrices, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise NonFiniteEntry("matrix entries must be finite (no NaN/Inf)")
    return raw


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
# level, as for square-zero T): double precision does not resolve crossings,
# and the disk test, then for the matrices it does not certify the grid,
# takes over
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


def _disk_angles(n: int) -> np.ndarray:
    """The N = 8 ceil((2n + 1) / 8) uniform angles 2 pi j / N of the disk
    test of an n x n matrix: enough samples to resolve a trigonometric
    polynomial of degree n, and a multiple of 8, so that the seed angles
    are among them."""
    count = 8 * -(-(2 * n + 1) // 8)
    return np.arange(count) * (_TWO_PI / count)


def _trig_lower_bound(samples: np.ndarray, degree: int) -> np.ndarray:
    """c_0 - 2 sum_{k=1..degree} |c_k| for each row of a (m, N) array of
    samples, c_k = (1/N) sum_j samples[j] exp(-2 pi i j k / N): a lower
    bound on every value of a real trigonometric polynomial p of degree at
    most `degree` that takes those values at the angles 2 pi j / N.

    For N >= 2 degree + 1 the c_k are p's own coefficients, with no
    aliasing, and p(t) = c_0 + 2 Re sum_k c_k exp(i k t).  The DFT is a
    product with an (N, degree + 1) table, one row at a time, so a row's
    bound does not depend on the others.
    """
    count = samples.shape[-1]
    # k j is reduced mod N before it becomes an angle, so every table angle
    # lies in [0, 2 pi)
    steps = (np.arange(count)[:, None] * np.arange(degree + 1)) % count
    table = np.exp((-1j * _TWO_PI / count) * steps)
    c = (samples[:, None, :] @ table)[:, 0] / count
    return c[:, 0].real - 2.0 * np.abs(c[:, 1:]).sum(axis=1)


def _disk_certified(spectra: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Where the disk test proves w(T) < r' = r + CIRCLE_TOL max(1, r), for
    a stack of (binary-scaled) matrices T given their ascending spectra at
    the `_disk_angles` (shape (m, N, n)) and their levels r, each at least
    every sampled lambda_max.

    p(t) = det(r' I - H(t)) is a real trigonometric polynomial of degree at
    most n, since each entry of H(t) = cos(t) Re(T) - sin(t) Im(T) has
    degree 1.  Its samples, divided by r'^n, are the products
    s_j = prod_i f_ij of the factors f_ij = (r' - lambda_i(t_j)) / r'.  Where
    `_trig_lower_bound` of the s_j exceeds their error bound, p has no
    zero: r' is an eigenvalue of no H(t), and as lambda_max(H(t)) < r' at
    the samples, it is below r' at every t by continuity.  This fires where
    lambda_max is flat, W(T) a disk about 0 (square-zero T, Jordan blocks,
    weighted shifts, ...), and the pencil of the level set is singular.

    The error bound.  Each computed eigenvalue lies within
    d = (4n + 40 sqrt(n)) eps h of the exact eigenvalue of H at the exact
    angle 2 pi j / N, h being the largest |lambda_i(t_j)| sampled.  By
    Weyl's inequality, 4 n eps h covers eigvalsh's backward error, and
    40 sqrt(n) eps h the rounding of the angles, of their cosines and
    sines, of Re(T), Im(T) and of the operands: at most
    17 eps (||Re T||_F + ||Im T||_F) in norm, where
    ||Re T||_F + ||Im T||_F <= 2 max_j ||H(t_j)||_F <= 2 sqrt(n) h (the
    mean of ||H(t_j)||_F^2 over the samples is
    (||Re T||_F^2 + ||Im T||_F^2) / 2).  So each computed factor is within
    delta = d / r' + 2 eps of the exact one (2 eps for its own rounding),
    and each sample within e_j = prod_i (f_ij + delta) - prod_i f_ij, plus
    2 n eps prod_i (f_ij + delta) for the rounding of the products.  Each
    DFT coefficient moves by at most max_j e_j, so the bound moves by at
    most (2n + 1) max_j e_j; 2 N eps max_j s_j more, times 2n + 1, covers
    the rounding of the DFT and of its sum.

    Only matrices whose factors all exceed delta (so the exact lambda_max
    is below r' at every sample) and whose products stay finite and in the
    normal range can be certified.
    """
    count, n = spectra.shape[1:]
    raised = (level + CIRCLE_TOL * np.maximum(1.0, level))[:, None, None]
    factors = (raised - spectra) / raised
    h = np.abs(spectra).max(axis=(1, 2))[:, None, None]
    delta = (4 * n + 40 * math.sqrt(n)) * _EPS * h / raised + 2 * _EPS
    with np.errstate(over="ignore"):
        upper = (factors + delta).prod(axis=2)
    candidate = ((factors > delta).all(axis=(1, 2)) & np.isfinite(upper).all(axis=1)
                 & (np.minimum(factors, 1.0).prod(axis=2).min(axis=1) >= _TINY))
    samples, upper = factors[candidate].prod(axis=2), upper[candidate]
    err = (2 * n + 1) * ((upper - samples + 2 * n * _EPS * upper).max(axis=1)
                         + 2 * count * _EPS * samples.max(axis=1))
    certified = np.zeros(candidate.size, dtype=bool)
    certified[candidate] = _trig_lower_bound(samples, n) > err
    return certified


def _level_set(raw: np.ndarray):
    """`numerical_radius` of each matrix of a (m, n, n) stack of nonzero
    binary-scaled matrices.  A matrix equal to its adjoint bitwise is
    answered from its spectrum at angle 0, its H(0) being the matrix
    itself: Hermitian H is normal, so w(H) = ||H|| = max(lambda_max,
    -lambda_min), at angle 0 when lambda_max >= -lambda_min and pi
    otherwise, width 0 (an exact value) and one evaluation.  The other
    matrices run in lockstep, and a matrix leaves as its search ends.
    Every eigenvalue is taken through `rotated_objective_many` of the
    stack: the Hermitian spectra, lambda_max at the seeds, at each level's
    midpoints and in the grid fallback, and the spectra of each level's
    disk test.

    Returns (value, argmax, width, evaluations) arrays, one entry per matrix.
    """
    m, n = raw.shape[:2]
    spectra_at = rotated_objective_many(raw, np.linalg.eigvalsh)
    result = (np.empty(m), np.empty(m), np.zeros(m), np.ones(m, dtype=np.intp))
    hermitian = (raw == adjoint(raw)).all(axis=(1, 2))
    ids = np.flatnonzero(hermitian)
    if ids.size:
        spectra = spectra_at(ids, np.zeros(ids.size))
        top, bottom = spectra[:, -1], -spectra[:, 0]
        result[0][ids] = np.maximum(top, bottom)
        result[1][ids] = np.where(top >= bottom, 0.0, math.pi)
    ids = np.flatnonzero(~hermitian)
    if ids.size == 0:
        return result

    def F(owner, angles):
        """lambda_max of each operand."""
        return spectra_at(owner, angles)[:, -1]

    seeds = _SEED_ANGLES.size
    tops = F(ids.repeat(seeds), np.tile(_SEED_ANGLES, ids.size)).reshape(ids.size, seeds)
    k = tops.argmax(axis=1)
    value, theta = tops[np.arange(ids.size), k], _SEED_ANGLES[k]
    evals = np.full(ids.size, seeds)
    a, b = _pencils(raw[ids])

    def leave(done, width):
        """Record the matrices whose search ended; the others' state."""
        for out, x in zip(result, (value, theta, width, evals)):
            out[ids[done]] = x[done]
        keep = ~done
        return (x[keep] for x in (ids, a, b, value, theta, evals))

    def raise_to(where, v, x):
        """Move the matrices `where` to the values v at the angles x that
        beat theirs, or match them at a smaller angle."""
        higher = (v > value[where]) | ((v == value[where]) & (x < theta[where]))
        value[where[higher]], theta[where[higher]] = v[higher], x[higher]

    for level in range(_MAX_LEVELS):
        cross, counts = _level_crossings(a, b, value)
        if counts.min() <= 0:
            # no crossings (width 0), a certified disk (width 0), or the grid
            # finishes the search
            width = np.zeros(ids.size)
            flat = np.flatnonzero(counts < 0)
            if flat.size:
                disk = _disk_angles(n)
                spectra = spectra_at(ids[flat].repeat(disk.size), np.tile(disk, flat.size))
                spectra = spectra.reshape(flat.size, disk.size, n)
                best = spectra[..., -1].argmax(axis=1)
                raise_to(flat, spectra[np.arange(flat.size), best, -1], disk[best])
                evals[flat] += disk.size
                flat = flat[~_disk_certified(spectra, value[flat])]
            if flat.size:
                owners = ids[flat]
                found = maximize_on_circle_many(lambda own, angles: F(owners[own], angles),
                                                flat.size, even=False)
                x, _, widths, ev = (np.array(f) for f in zip(*found))
                width[flat] = widths
                # each maximizer is evaluated again at the wrapped angle, so
                # that value is lambda_max(H(argmax))
                x %= _TWO_PI
                evals[flat] += ev + 1
                raise_to(flat, F(owners, x), x)
            done = counts <= 0
            if done.all():
                leave(done, width)
                break
            ids, a, b, value, theta, evals = leave(done, width)
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
                leave(done | final, width)
                break
            ids, a, b, value, theta, evals = leave(done, width)
    return result


@memo_per_matrix(_BLANK_RADIUS)
def numerical_radius_many(stack) -> list[RadiusResult]:
    """w of each matrix of a (m, n, n) stack; see `numerical_radius`.

    The Hermitian matrices of a chunk (bitwise, on the scaled copy) are
    answered together from one batched eigvalsh at angle 0, one evaluation
    each.  For the others the seeds and the level steps run in lockstep:
    one batched eigvalsh of the seeds, then per level one batched
    solve, eigvals and eigvalsh, a matrix leaving as its search ends.  The
    matrices whose pencils are too close to singular at a level take the
    disk test together, in one batched eigvalsh, and those it does not
    certify finish on the grid together, in one `maximize_on_circle_many`.
    A chunk holds at most _PENCIL_ENTRIES pencil entries, so the working
    set does not grow with the stack, and is binary-scaled on its own.  Every result is
    bitwise the one `numerical_radius` gives for that matrix alone.
    """
    m, n = stack.shape[:2]
    results = [_ZERO_RADIUS] * m
    step = max(1, _PENCIL_ENTRIES // (4 * n * n))
    for lo in range(0, m, step):
        chunk, exponent = binary_scaled(stack[lo:lo + step])
        nonzero = np.flatnonzero(chunk.any(axis=(1, 2)))   # zero matrices keep w = 0
        if nonzero.size == 0:
            continue
        value, *rest = _level_set(chunk[nonzero])
        columns = (c.tolist() for c in (binary_unscaled(value, exponent[nonzero]), *rest))
        for k, *fields in zip((nonzero + lo).tolist(), *columns):
            results[k] = RadiusResult(*fields)
    return results


def numerical_radius(T) -> RadiusResult:
    """w(T) = max over theta of lambda_max(H(theta)), where
    H(theta) = Re(exp(i theta) T) = cos(theta) Re(T) - sin(theta) Im(T),
    by level sets (He & Watson 1997; Mengi & Overton 2005).

    A T whose binary-scaled copy equals its adjoint bitwise is normal, so
    w(T) = ||T|| = max(lambda_max, -lambda_min), read from the spectrum of
    H(0) = T: argmax_theta is 0.0 where lambda_max >= -lambda_min and
    exactly pi otherwise, achieved_interval is 0.0 (an exact value) and
    evaluations is 1.  Every other T runs the level sets below.

    The value r starts as the best lambda_max over eight seed angles.  Each
    level step finds every angle where r is an eigenvalue of H(theta) (the
    unimodular eigenvalues of z^2 T - 2 r z I + T*, see `_level_crossings`),
    evaluates lambda_max at the midpoints of the intervals between
    consecutive crossings in one batched eigvalsh, and raises r to the best
    of them.  Near a smooth maximum the midpoint lands within O(gap^2) of
    it, so r converges quadratically.  T is binary-scaled (the module's one
    scale rule), so the unimodularity tolerance and the stopping rule act
    on a scale-free problem.

    The iteration stops when a level has no crossings (then, up to rounding,
    no angle rises above it: a certificate that r = w), or when its best
    midpoint raises the scaled r by at most CIRCLE_TOL * max(1, r).  Where
    the pencil is too close to singular to resolve crossings (lambda_max
    flat to about 1e-6 relative, as for square-zero or nilpotent T), a disk
    test comes first: r is raised to the best lambda_max at
    N = 8 ceil((2n + 1) / 8) uniform angles, and the spectra there bound
    the trigonometric polynomial det(r' I - H(theta)) of degree n,
    r' = r + CIRCLE_TOL * max(1, r), from below (`_disk_certified`).  A
    positive bound certifies r <= w < r', and the search ends; this
    settles disk matrices (W(T) a disk about 0: square-zero T, Jordan
    blocks, weighted shifts) in N + 8 evaluations.  Only an uncertified matrix goes
    on to the grid-and-Brent optimizer `maximize_on_circle`, which
    searches the full circle, and the better of the two results is kept.
    The zero matrix gives exactly 0.

    `value` is lambda_max(H(argmax_theta)) as evaluated; ties go to the
    smallest angle in [0, 2 pi) among the evaluated maximizers.
    `achieved_interval` is the width of the interval between consecutive
    crossings, at the last level searched, that holds argmax_theta (0.0 when
    that level had none or the disk test certified it), or the final
    Brent bracket when the grid finished the search.
    `evaluations` counts the angles at which lambda_max (or, in the disk
    test and for Hermitian T, the spectrum) was evaluated (one pencil
    eigensolve per level is extra).
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
    _, v, _, _ = maximize_on_circle(lambda t: F(-t), True)
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


@memo_per_matrix(_BLANK_OMEGA)
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


def omega_norm(T) -> OmegaResult:
    """Omega(T): maximize ||cos(s) T + exp(i psi) sin(s) T*|| by
    `omega_norm_many` at the defaults of the settings named below.

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

    The search follows the module's one scale rule, so no Gram entry
    overflows or underflows.  The global phase of the coefficient pair
    drops out (zeta is kept real non-negative).

    `value` is sqrt(lambda_max(G(u))) at the returned u, whose (s, psi) is
    `argmax` (psi = 0 where u is the pole s = 0 up to rounding);
    `achieved_cell` is the length in u of the last accepted step
    (2 max(ds, dpsi), the grid cell, without refinement); `evaluations`
    counts the grid nodes evaluated (the row s = 0 once) plus eigensolves.
    This is the one-matrix case of `omega_norm_many`.
    """
    return omega_norm_many(np.asarray(T, dtype=np.complex128)[None])[0]


# Reduced (but still refined) settings for the slow w_Omega path: the
# outer objective is the smooth numerical-radius objective scaled by
# sqrt(2) and the inner Omega evaluations act on Hermitian matrices, so
# coarse grids localize the maxima; Brent's method (outer) and Newton
# (inner) recover the precision, and a bracket or step of width w costs only
# O(w^2) in value.  The inner value is noisy at the scale of the outer
# steps, so an outer bracket keeps its best point on a tie and ends by
# Brent's centred test.
SLOW_OMEGA_OUTER = {"grid": 96, "refine_tol": 1e-6, "top_brackets": 3}
SLOW_OMEGA_INNER = {"grid_s": 13, "grid_psi": 24, "refine_tol": 1e-4, "top_cells": 2}


def omega_radius_slow(T) -> RadiusResult:
    """w_Omega(T) computed the long way: the grid path of generalized_radius
    with the Omega norm itself as N, at the SLOW_OMEGA_* settings.  It
    cross-validates the identity w_Omega(T) = sqrt(2) w(T) (Omega is
    sqrt(2) times the operator norm on Hermitian matrices).  This is the
    one-matrix case of `omega_radius_slow_many`."""
    return omega_radius_slow_many(np.asarray(T, dtype=np.complex128)[None])[0]


@memo_per_matrix(_BLANK_RADIUS)
def omega_radius_slow_many(stack) -> list[RadiusResult]:
    """`omega_radius_slow` of each matrix of a (m, n, n) stack, all of them
    searched together: every grid or Brent step is one `omega_norm_many`
    call on the operands of every matrix.  Every result is
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
