"""One checkable predicate per radius/norm inequality, plus a suite runner.

Every check computes both sides of its inequality (or chain of
inequalities) on concrete matrices and returns an InequalityReport.  The
report normalizes by max(1, scale), where scale is the largest norm
appearing in the check, so that optimizer error never produces false
violations and so that `holds` is invariant under rescaling the inputs of
a homogeneous check.  For chains, the binding (smallest-slack) comparison
becomes the headline lhs/rhs and every individual slack lands in `terms`.

Checks whose hypotheses fail (missing norm flags, inputs outside the unit
ball, a pair that does not commute) raise a CheckInapplicable subclass;
the suite runner turns those into "inapplicable" records, never passes.

The sup/inf over a rotation angle that several bounds need reuses the same
grid + golden-section machinery as the radius optimizers, keeping error
budgets uniform across the package.  The inf of `inf-upper` and the sup of
`lower-bound` are one stack search, `_phase_sups`, over
`radius.rotated_objective_many`: each grid or lockstep golden-section call
evaluates N(Re(e^{i phi}T)) and N(Im(e^{i phi}T)) together, on the joined
angles phi and phi - pi/2, through `norm.evaluate_many`.  Like the radius
searches it runs on the binary-scaled stack, so its objectives have degree
1 in T (`lower-bound` squares the sup of a root), and it keeps its result
per matrix in the open result memo (`radius.memo_per_matrix`); a check
reads it for its one matrix.

`run_suite` stacks each trial's slowest searches.  A check may declare a
`stacked` function; before a trial's cells run, it is called once per norm
and matrix size on the stack of the trial's draws, and fills the trial's
result memo with what the cells will read: the slow Omega radii of
`omega-chain` and the radii and inf / sup searches of `inf-upper` and
`lower-bound`, each searched for the whole stack at once by
`radius.maximize_on_circle_many`.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .matcore import (
    adjoint,
    as_matrix,
    binary_scaled,
    binary_unscaled,
    cayley_unitary,
    frobenius_norm,
    hermitian_defect,
    hermitian_norm,
    im_part,
    re_part,
    spectral_norm,
)
from .ensembles import (
    PAIR_KINDS,
    EnsembleSpec,
    ensemble_id,
    generate,
    generate_pair,
)
from .norms import NormSpec, registry
from .radius import (
    CIRCLE_GRID,
    generalized_radius,
    generalized_radius_many,
    maximize_on_circle,
    maximize_on_circle_many,
    memo_per_matrix,
    numerical_radius,
    omega_norm,
    omega_radius_slow,
    omega_radius_slow_many,
    result_memo,
    rotated_objective,
    rotated_objective_many,
)

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi


class CheckInapplicable(Exception):
    """The check's hypotheses do not hold for these inputs; not a failure."""


class RequiresAlgebraNorm(CheckInapplicable):
    """The bound is only proved for submultiplicative norms."""


class RequiresFlags(CheckInapplicable):
    """The norm lacks a declared property (or unitary supremum) the bound needs."""


class RequiresContraction(CheckInapplicable):
    """An input must lie in the operator-norm unit ball."""


class RequiresCommutation(CheckInapplicable):
    """The pair neither commutes nor anticommutes within tolerance."""


class RequiresStructure(CheckInapplicable):
    """A structural hypothesis (normality, T^2 = 0, self-adjointness) fails."""


DEFAULT_TOL = 1e-9
# relative tolerance of the omega-equality conditions
_EQUALITY_TOL = 1e-7
# relative tolerance of the special-forms closed forms
_FORM_TOL = 1e-7


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality instance.

    lhs, rhs and slack are normalized by max(1, scale); slack == rhs - lhs
    and holds == (slack >= -tolerance), exactly.  `terms` carries every
    intermediate (raw values, per-link slacks, the scale) and is a pure
    function of the inputs.
    """

    name: str
    paper_tag: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tolerance: float
    terms: dict
    input_digest: str


def _digest(arrays: Sequence[np.ndarray], extra: str = "") -> str:
    h = hashlib.sha256()
    for a in arrays:
        arr = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    h.update(extra.encode())
    return h.hexdigest()[:16]


def _report(name: str, tag: str, comparisons, scale: float, tol: float,
            terms: dict, digest: str) -> InequalityReport:
    """Assemble a report from raw (label, lhs, rhs) comparisons."""
    denom = max(1.0, float(scale))
    best = None
    out_terms = {k: float(v) for k, v in terms.items()}
    raw_min = math.inf
    for label, lhs, rhs in comparisons:
        lhs_n, rhs_n = float(lhs) / denom, float(rhs) / denom
        s = rhs_n - lhs_n
        out_terms[f"slack[{label}]"] = s
        raw_min = min(raw_min, float(rhs) - float(lhs))
        if best is None or s < best[0]:
            best = (s, lhs_n, rhs_n)
    slack, lhs_n, rhs_n = best
    out_terms["scale"] = float(scale)
    out_terms["raw_slack_min"] = raw_min
    return InequalityReport(
        name=name, paper_tag=tag,
        lhs=lhs_n, rhs=rhs_n, slack=slack,
        holds=bool(slack >= -tol), tolerance=float(tol),
        terms=out_terms, input_digest=digest,
    )


def check_basic_bounds(T, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """||T||/2 <= w(T) <= ||T||, the two-sided norm equivalence.

    The left side is sharp on square-zero inputs, the right side on normal
    ones.
    """
    arr = as_matrix(T, square=True)
    w = numerical_radius(arr).value
    nrm = spectral_norm(arr)
    comparisons = [("lower", 0.5 * nrm, w), ("upper", w, nrm)]
    terms = {"w": w, "operator_norm": nrm}
    return _report("basic", "radius-norm-equivalence", comparisons, nrm, tol,
                   terms, _digest([arr]))


def check_kittaneh(T, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Kittaneh's refinement w(T) <= sqrt(||T T* + T* T||) / sqrt(2)."""
    arr = as_matrix(T, square=True)
    w = numerical_radius(arr).value
    bound = math.sqrt(spectral_norm(arr @ adjoint(arr) + adjoint(arr) @ arr)) / _SQRT2
    terms = {"w": w, "bound": bound}
    return _report("kittaneh", "kittaneh-sqrt-refinement", [("upper", w, bound)],
                   max(w, bound), tol, terms, _digest([arr]))


def check_dragomir(T, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Dragomir's Buzano-based refinement
    w(T) <= sqrt(||T||^2 + w(T^2)) / sqrt(2)."""
    arr = as_matrix(T, square=True)
    w = numerical_radius(arr).value
    w_sq = numerical_radius(arr @ arr).value
    bound = math.sqrt(spectral_norm(arr) ** 2 + w_sq) / _SQRT2
    terms = {"w": w, "w_of_square": w_sq, "bound": bound}
    return _report("dragomir", "dragomir-buzano-refinement", [("upper", w, bound)],
                   max(w, bound), tol, terms, _digest([arr]))


def _negated_quadrature(re_n, im_n):
    """-sqrt(N^2(Re) + N^2(Im)), whose maximum is the Cauchy-Schwarz inf."""
    return -np.hypot(re_n, im_n)


def _square_difference(re_n, im_n):
    """sqrt|N^2(Re) - N^2(Im)|, the root of the refinement term of the
    algebra lower bound, of degree 1 in T as `_phase_sups` requires."""
    return np.sqrt(np.abs(re_n ** 2 - im_n ** 2))


@memo_per_matrix
def _phase_sups(stack, norm: NormSpec, pair) -> list:
    """(argmax phi in [0, 2 pi), value) of the maximum over phi of
    pair(N(Re(e^{i phi} T)), N(Im(e^{i phi} T))) for each T of a stack,
    pair being positively homogeneous of degree 1 (the stack is searched
    binary-scaled, and the values scaled back).

    One `maximize_on_circle_many` searches every matrix in lockstep, and
    each of its calls evaluates N once, through `rotated_objective_many`, on
    the joined angles phi and phi - pi/2, since
    Im(e^{i phi} T) = Re(e^{i (phi - pi/2)} T).
    """
    scaled, exponent = binary_scaled(stack)
    F = rotated_objective_many(scaled, norm.evaluate_many)

    def objective(owner, phis):
        both = F(np.concatenate((owner, owner)), np.concatenate((phis, phis - math.pi / 2)))
        return pair(both[:phis.size], both[phis.size:])

    found = maximize_on_circle_many(objective, stack.shape[0], norm.even)
    values = binary_unscaled(np.array([v for _, v, _, _ in found]), exponent).tolist()
    return [(x % _TWO_PI, v) for (x, _, _, _), v in zip(found, values)]


def check_inf_upper(T, norm: NormSpec, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The Cauchy-Schwarz upper bound
    w_N(T) <= inf_phi sqrt(N^2(Re(e^{i phi}T)) + N^2(Im(e^{i phi}T))),
    reported together with its coarsenings at phi = 0:
    inf <= sqrt(N^2(Re T) + N^2(Im T)) <= N(Re T) + N(Im T)."""
    arr = as_matrix(T, square=True)
    w_n = generalized_radius(arr, norm).value
    phi, neg_inf = _phase_sups(arr[None], norm, _negated_quadrature)[0]
    inf_v = -neg_inf
    n_re, n_im = norm.evaluate(re_part(arr)), norm.evaluate(im_part(arr))
    mid1 = math.hypot(n_re, n_im)
    mid2 = n_re + n_im
    comparisons = [("main", w_n, inf_v), ("inf-vs-phi0", inf_v, mid1),
                   ("quadratic-vs-sum", mid1, mid2)]
    terms = {"w_N": w_n, "inf": inf_v, "inf_argmin_phi": phi,
             "re_norm": n_re, "im_norm": n_im, "sqrt_sum_sq": mid1, "sum": mid2}
    return _report("inf-upper", "cauchy-schwarz-inf-upper", comparisons,
                   max(w_n, mid2), tol, terms, _digest([arr], norm.id))


def check_lower_bound(T, norm: NormSpec, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The algebra-norm lower bound
    N(TT* + T*T)/4 + sup_phi |N^2(Re(e^{i phi}T)) - N^2(Im(e^{i phi}T))|/2
    <= w_N(T)^2, together with the weaker N(TT* + T*T)/4 <= w_N(T)^2."""
    if not norm.algebra:
        raise RequiresAlgebraNorm(f"norm {norm.id!r} does not declare the algebra flag")
    arr = as_matrix(T, square=True)
    w_n = generalized_radius(arr, norm).value
    phi, root = _phase_sups(arr[None], norm, _square_difference)[0]
    sup_v = root ** 2
    quarter = norm.evaluate(arr @ adjoint(arr) + adjoint(arr) @ arr) / 4.0
    lhs = quarter + 0.5 * sup_v
    rhs = w_n ** 2
    comparisons = [("refined", lhs, rhs), ("quarter-only", quarter, rhs)]
    terms = {"w_N": w_n, "quarter_term": quarter, "sup_difference": sup_v,
             "sup_argmax_phi": phi}
    return _report("lower-bound", "algebra-lower-bound", comparisons,
                   max(lhs, rhs), tol, terms, _digest([arr], norm.id))


def _require_flags(norm: NormSpec, *, self_adjoint=False, algebra=False,
                   unitary_invariant=False, unitary_sup=False) -> None:
    missing = []
    if self_adjoint and not norm.self_adjoint:
        missing.append("self_adjoint")
    if algebra and not norm.algebra:
        missing.append("algebra")
    if unitary_invariant and not norm.weakly_unitarily_invariant:
        missing.append("weakly_unitarily_invariant")
    if unitary_sup and norm.unitary_sup is None:
        missing.append("unitary_sup")
    if missing:
        raise RequiresFlags(f"norm {norm.id!r} lacks: {', '.join(missing)}")


def _pair(T, S):
    """T and S as finite square complex128 matrices of the same shape."""
    t, s = as_matrix(T, square=True), as_matrix(S, square=True)
    if t.shape != s.shape:
        raise ValueError("T and S must have the same shape")
    return t, s


def check_norm_chain(T, S, norm: NormSpec, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """For a self-adjoint algebra norm, the four-link product chain
    w_N(TS) <= N(TS) <= N(T) N(S) <= 2 N(T) w_N(S) <= 4 w_N(T) w_N(S)."""
    _require_flags(norm, self_adjoint=True, algebra=True)
    t, s = _pair(T, S)
    ts = t @ s
    w_ts = generalized_radius(ts, norm).value
    n_ts = norm.evaluate(ts)
    n_t, n_s = norm.evaluate(t), norm.evaluate(s)
    w_s = generalized_radius(s, norm).value
    w_t = generalized_radius(t, norm).value
    vals = [w_ts, n_ts, n_t * n_s, 2.0 * n_t * w_s, 4.0 * w_t * w_s]
    labels = ["radius-vs-norm", "submultiplicative", "half-bound", "quarter-bound"]
    comparisons = [(labels[i], vals[i], vals[i + 1]) for i in range(4)]
    terms = {"w_N_TS": w_ts, "N_TS": n_ts, "N_T": n_t, "N_S": n_s,
             "w_N_T": w_t, "w_N_S": w_s}
    return _report("norm-chain", "norm-radius-product-chain", comparisons,
                   max(vals), tol, terms, _digest([t, s], norm.id))


def check_commutator(T, S, norm: NormSpec, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """For an algebra norm, w_N(TS +/- ST*) <= w_N(S) (N(T) + N(T*));
    for a self-adjoint algebra norm also <= 2 w_N(S) N(T)."""
    if not norm.algebra:
        raise RequiresAlgebraNorm(f"norm {norm.id!r} does not declare the algebra flag")
    t, s = _pair(T, S)
    w_s = generalized_radius(s, norm).value
    rhs = w_s * (norm.evaluate(t) + norm.evaluate(adjoint(t)))
    lhs_plus = generalized_radius(t @ s + s @ adjoint(t), norm).value
    lhs_minus = generalized_radius(t @ s - s @ adjoint(t), norm).value
    comparisons = [("plus", lhs_plus, rhs), ("minus", lhs_minus, rhs)]
    terms = {"w_N_S": w_s, "rhs": rhs, "lhs_plus": lhs_plus, "lhs_minus": lhs_minus}
    if norm.self_adjoint:
        rhs_sa = 2.0 * w_s * norm.evaluate(t)
        comparisons += [("plus-self-adjoint", lhs_plus, rhs_sa),
                        ("minus-self-adjoint", lhs_minus, rhs_sa)]
        terms["rhs_self_adjoint"] = rhs_sa
    return _report("commutator", "commutator-product-bound", comparisons,
                   max(lhs_plus, lhs_minus, rhs), tol, terms,
                   _digest([t, s], norm.id))


def _require_hermitian_contraction(arr, what: str) -> np.ndarray:
    scale = max(1.0, frobenius_norm(arr))
    if hermitian_defect(arr) > 1e-8 * scale:
        raise RequiresStructure(f"{what} is not Hermitian within tolerance")
    h = (arr + adjoint(arr)) / 2
    top = spectral_norm(h)
    if top > 1.0 + 1e-9:
        raise RequiresContraction(f"{what} has spectral norm {top:.12g} > 1")
    return h


def check_unitary_commutator(T, S, norm: NormSpec, *,
                             tol: float = DEFAULT_TOL) -> InequalityReport:
    """For Hermitian contractions T, S and a weakly unitarily invariant
    self-adjoint algebra norm,
    w_N(TS +/- ST) <= min{w_N(T), w_N(S)} * 2 sup_U N(U).

    The unit ball is the operator-norm one: the Cayley completion
    U = S + i (I - S^2)^(1/2) behind the bound needs the spectrum of S
    inside [-1, 1].  The completion itself is exercised here and
    Re(U) == S is verified as part of the report.
    """
    _require_flags(norm, self_adjoint=True, algebra=True,
                   unitary_invariant=True, unitary_sup=True)
    t = _require_hermitian_contraction(as_matrix(T, square=True), "T")
    s = _require_hermitian_contraction(as_matrix(S, square=True), "S")
    if t.shape != s.shape:
        raise ValueError("T and S must have the same shape")
    n = t.shape[0]
    u = cayley_unitary(s)
    cayley_defect = frobenius_norm(re_part(u) - s)
    w_t = generalized_radius(t, norm).value
    w_s = generalized_radius(s, norm).value
    rhs = min(w_t, w_s) * 2.0 * float(norm.unitary_sup(n))
    lhs_plus = generalized_radius(t @ s + s @ t, norm).value
    lhs_minus = generalized_radius(t @ s - s @ t, norm).value
    comparisons = [("plus", lhs_plus, rhs), ("minus", lhs_minus, rhs),
                   ("cayley-real-part", cayley_defect, 1e-10)]
    terms = {"w_N_T": w_t, "w_N_S": w_s, "rhs": rhs, "lhs_plus": lhs_plus,
             "lhs_minus": lhs_minus, "cayley_defect": cayley_defect,
             "unitary_sup": float(norm.unitary_sup(n))}
    return _report("unitary-commutator", "unitary-commutator-bound", comparisons,
                   max(lhs_plus, lhs_minus, rhs), tol, terms,
                   _digest([t, s], norm.id))


def check_self_commutator(T, norm: NormSpec, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """For T in the operator-norm unit ball and a weakly unitarily invariant
    self-adjoint algebra norm, w_N(TT* - T*T) <= 4 N(T) sup_U N(U)."""
    _require_flags(norm, self_adjoint=True, algebra=True,
                   unitary_invariant=True, unitary_sup=True)
    arr = as_matrix(T, square=True)
    top = spectral_norm(arr)
    if top > 1.0 + 1e-9:
        raise RequiresContraction(f"T has spectral norm {top:.12g} > 1")
    n = arr.shape[0]
    lhs = generalized_radius(arr @ adjoint(arr) - adjoint(arr) @ arr, norm).value
    rhs = 4.0 * norm.evaluate(arr) * float(norm.unitary_sup(n))
    terms = {"lhs": lhs, "rhs": rhs, "N_T": norm.evaluate(arr)}
    return _report("self-commutator", "self-commutator-bound",
                   [("upper", lhs, rhs)], max(lhs, rhs), tol, terms,
                   _digest([arr], norm.id))


def check_product(T, S, norm: NormSpec, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The product refinement for a self-adjoint algebra norm:
    w_N(TS) <= min over the four +/- variants of
    { N(T) w_N(S) + w_N(TS +/- ST*)/2, N(S) w_N(T) + w_N(TS +/- S*T)/2 }
    <= 2 min{N(T) w_N(S), N(S) w_N(T)} <= 4 w_N(T) w_N(S)."""
    _require_flags(norm, self_adjoint=True, algebra=True)
    t, s = _pair(T, S)
    ts = t @ s
    w_ts = generalized_radius(ts, norm).value
    n_t, n_s = norm.evaluate(t), norm.evaluate(s)
    w_t, w_s = generalized_radius(t, norm).value, generalized_radius(s, norm).value
    b1_plus = n_t * w_s + 0.5 * generalized_radius(ts + s @ adjoint(t), norm).value
    b1_minus = n_t * w_s + 0.5 * generalized_radius(ts - s @ adjoint(t), norm).value
    b2_plus = n_s * w_t + 0.5 * generalized_radius(ts + adjoint(s) @ t, norm).value
    b2_minus = n_s * w_t + 0.5 * generalized_radius(ts - adjoint(s) @ t, norm).value
    level1 = min(b1_plus, b1_minus, b2_plus, b2_minus)
    level2 = 2.0 * min(n_t * w_s, n_s * w_t)
    level3 = 4.0 * w_t * w_s
    comparisons = [("refined", w_ts, level1), ("doubled", level1, level2),
                   ("quadrupled", level2, level3)]
    terms = {"w_N_TS": w_ts, "branch1_plus": b1_plus, "branch1_minus": b1_minus,
             "branch2_plus": b2_plus, "branch2_minus": b2_minus,
             "level2": level2, "level3": level3, "N_T": n_t, "N_S": n_s,
             "w_N_T": w_t, "w_N_S": w_s}
    return _report("product", "product-radius-refinement", comparisons,
                   max(w_ts, level3), tol, terms, _digest([t, s], norm.id))


def check_commuting_product(T, S, norm: NormSpec, *,
                            tol: float = DEFAULT_TOL) -> InequalityReport:
    """For Hermitian T, S with TS = +/- ST and a self-adjoint algebra norm,
    w_N(TS) <= min{N(T) w_N(S), N(S) w_N(T)}."""
    _require_flags(norm, self_adjoint=True, algebra=True)
    t, s = _pair(T, S)
    for arr, what in ((t, "T"), (s, "S")):
        if hermitian_defect(arr) > 1e-8 * max(1.0, frobenius_norm(arr)):
            raise RequiresStructure(f"{what} is not Hermitian within tolerance")
    pair_scale = max(frobenius_norm(t) * frobenius_norm(s), 1e-300)
    ts, st = t @ s, s @ t
    comm = frobenius_norm(ts - st) / pair_scale
    anti = frobenius_norm(ts + st) / pair_scale
    if comm <= 1e-10:
        mode = 1.0
    elif anti <= 1e-10:
        mode = -1.0
    else:
        raise RequiresCommutation(
            f"pair neither commutes nor anticommutes (residuals {comm:.3e}, {anti:.3e})"
        )
    lhs = generalized_radius(ts, norm).value
    rhs = min(norm.evaluate(t) * generalized_radius(s, norm).value,
              norm.evaluate(s) * generalized_radius(t, norm).value)
    terms = {"lhs": lhs, "rhs": rhs, "mode": mode,
             "commutation_residual": min(comm, anti)}
    return _report("commuting-product", "commuting-product-bound",
                   [("upper", lhs, rhs)], max(lhs, rhs), tol, terms,
                   _digest([t, s], norm.id))


def _omega_branches(arr):
    b1 = math.sqrt(spectral_norm(arr @ adjoint(arr) + adjoint(arr) @ arr))
    b2 = math.sqrt(spectral_norm(arr) ** 2 + numerical_radius(arr @ arr).value)
    return b1, b2


def _stacked_omega_chain(stack, norm) -> None:
    omega_radius_slow_many(stack)


def _stacked_inf_upper(stack, norm: NormSpec) -> None:
    generalized_radius_many(stack, norm)
    _phase_sups(stack, norm, _negated_quadrature)


def _stacked_lower_bound(stack, norm: NormSpec) -> None:
    if norm.algebra:   # otherwise the check reads nothing
        generalized_radius_many(stack, norm)
        _phase_sups(stack, norm, _square_difference)


def check_omega_upper(T, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Omega(T) <= min{ sqrt(||TT* + T*T||), sqrt(||T||^2 + w(T^2)) }."""
    arr = as_matrix(T, square=True)
    om = omega_norm(arr).value
    b1, b2 = _omega_branches(arr)
    terms = {"omega": om, "branch_gram": b1, "branch_square": b2}
    return _report("omega-upper", "omega-upper-refinement",
                   [("upper", om, min(b1, b2))], max(om, b1, b2), tol, terms,
                   _digest([arr]))


def check_omega_chain(T, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """w(T) <= Omega(T)/sqrt(2) <= min{...}/sqrt(2), refining both the
    Kittaneh and the Dragomir bound, plus the numeric identity
    w_Omega(T) = sqrt(2) w(T) verified through the slow generalized-radius
    path with Omega as the plugged-in norm."""
    arr = as_matrix(T, square=True)
    w = numerical_radius(arr).value
    om = omega_norm(arr).value
    b1, b2 = _omega_branches(arr)
    half = _SQRT2 / 2.0
    slow = omega_radius_slow(arr).value
    agreement = abs(_SQRT2 * w - slow)
    budget = 1e-7 * max(1.0, w)
    comparisons = [("w-vs-omega", w, half * om),
                   ("omega-vs-min", half * om, half * min(b1, b2)),
                   ("radius-identity", agreement, budget)]
    terms = {"w": w, "omega": om, "branch_gram": b1, "branch_square": b2,
             "w_omega_slow": slow, "identity_residual": agreement}
    return _report("omega-chain", "omega-radius-chain", comparisons,
                   max(w, half * om, half * min(b1, b2)), tol, terms,
                   _digest([arr]))


def check_omega_equality(T, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The equivalence: w_Omega(T) = Omega(T)/2 holds iff
    Omega(T) = 2 sqrt(2) ||Re(e^{i theta} T)|| for every theta.

    Both conditions are evaluated at _EQUALITY_TOL (relative to Omega);
    the check passes iff they agree.  Inputs within 1e-4 of the first
    equality are flagged in terms["near_equality"] for later study, since
    no nonzero finite-dimensional example is known.
    """
    arr = as_matrix(T, square=True)
    om = omega_norm(arr).value
    w = numerical_radius(arr).value
    w_om = _SQRT2 * w
    thetas = np.arange(CIRCLE_GRID) * (_TWO_PI / CIRCLE_GRID)
    norms_grid = rotated_objective(arr, hermitian_norm)(thetas)
    max_dev = float(np.abs(om - 2.0 * _SQRT2 * norms_grid).max())
    if om == 0.0:
        cond_i = cond_ii = True
        residual_i = 0.0
    else:
        residual_i = abs(w_om - om / 2.0)
        cond_i = residual_i <= _EQUALITY_TOL * om
        cond_ii = max_dev <= _EQUALITY_TOL * om
    delta = abs(int(cond_i) - int(cond_ii))
    near = 1.0 if (om > 0.0 and residual_i <= 1e-4 * om) else 0.0
    terms = {"omega": om, "w_omega": w_om, "residual_halving": residual_i,
             "max_theta_deviation": max_dev, "cond_halving": float(cond_i),
             "cond_flat": float(cond_ii), "near_equality": near}
    return _report("omega-equality", "omega-half-radius-equivalence",
                   [("equivalence", float(delta), 0.0)], 1.0, tol, terms,
                   _digest([arr]))


_SPECIAL_KINDS = ("normal", "square_zero", "self_adjoint")


def check_special_forms(T, kind: str, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Closed forms on structured inputs: normal -> Omega = sqrt(2) ||T||
    and w_Omega = Omega; square-zero -> Omega = ||T|| and
    w_Omega = Omega / sqrt(2); self-adjoint -> Omega = sqrt(2) ||T||.

    The structural hypothesis is verified numerically first; a failure is
    inapplicability, not a violation.
    """
    if kind not in _SPECIAL_KINDS:
        raise ValueError(f"kind must be one of {_SPECIAL_KINDS}, got {kind!r}")
    arr = as_matrix(T, square=True)
    fro = frobenius_norm(arr)
    if kind == "normal":
        residual = frobenius_norm(arr @ adjoint(arr) - adjoint(arr) @ arr)
        if residual > 1e-8 * max(1.0, fro ** 2):
            raise RequiresStructure(f"normality residual {residual:.3e} too large")
    elif kind == "square_zero":
        residual = frobenius_norm(arr @ arr)
        if residual > 1e-8 * max(1.0, fro ** 2):
            raise RequiresStructure(f"T^2 residual {residual:.3e} too large")
    else:
        residual = hermitian_defect(arr)
        if residual > 1e-8 * max(1.0, fro):
            raise RequiresStructure(f"hermiticity defect {residual:.3e} too large")
    om = omega_norm(arr).value
    w = numerical_radius(arr).value
    nrm = spectral_norm(arr)
    comparisons = []
    terms = {"omega": om, "w": w, "operator_norm": nrm,
             "structural_residual": residual}
    if kind in ("normal", "self_adjoint"):
        ref = _SQRT2 * nrm
        comparisons.append(("omega-form", abs(om - ref), _FORM_TOL * max(1.0, ref)))
        terms["omega_reference"] = ref
    else:
        comparisons.append(("omega-form", abs(om - nrm), _FORM_TOL * max(1.0, nrm)))
        terms["omega_reference"] = nrm
    if kind == "normal":
        comparisons.append(("radius-form", abs(_SQRT2 * w - om),
                            _FORM_TOL * max(1.0, om)))
    elif kind == "square_zero":
        comparisons.append(("radius-form", abs(_SQRT2 * w - om / _SQRT2),
                            _FORM_TOL * max(1.0, om)))
    return _report("special-forms", "omega-closed-forms", comparisons,
                   max(om, _SQRT2 * nrm), tol, terms, _digest([arr], kind))


def check_hs_pair(T, S, *, tol: float = DEFAULT_TOL) -> InequalityReport:
    """The Hilbert-Schmidt (Frobenius) trace bounds:

    (i)  ||TT* + T*T||_F + sup_phi |tr((e^{i phi}T)^2 + (e^{-i phi}T*)^2)|
         <= 2 (||T||_F^2 + |tr(T^2)|), and
    (ii) ||TS||_F^2 + |tr((TS)^2)|
         <= 4 min{||T||_F^2 (||S||_F^2 + |tr S^2|),
                  ||S||_F^2 (||T||_F^2 + |tr T^2|)}.

    The phi-supremum in (i) is computed both by grid + golden-section
    refinement and by its closed form 2 |tr(T^2)| (the objective is
    |2 Re(e^{2 i phi} tr T^2)|); the two must agree to 1e-10 relative.
    """
    t, s = _pair(T, S)
    tr_t2 = complex(np.einsum("ij,ji->", t, t))
    tr_t2_adj = complex(np.einsum("ij,ji->", adjoint(t), adjoint(t)))

    def q(phis):
        ph = np.exp(2j * phis)
        return np.abs(ph * tr_t2 + np.conj(ph) * tr_t2_adj)

    phi, sup_grid, _, _ = maximize_on_circle(q, even=True)
    closed = 2.0 * abs(tr_t2)
    lhs_i = frobenius_norm(t @ adjoint(t) + adjoint(t) @ t) + sup_grid
    rhs_i = 2.0 * (frobenius_norm(t) ** 2 + abs(tr_t2))
    ts = t @ s
    tr_ts2 = complex(np.einsum("ij,ji->", ts, ts))
    tr_s2 = complex(np.einsum("ij,ji->", s, s))
    lhs_ii = frobenius_norm(ts) ** 2 + abs(tr_ts2)
    rhs_ii = 4.0 * min(
        frobenius_norm(t) ** 2 * (frobenius_norm(s) ** 2 + abs(tr_s2)),
        frobenius_norm(s) ** 2 * (frobenius_norm(t) ** 2 + abs(tr_t2)),
    )
    comparisons = [("part-i", lhs_i, rhs_i), ("part-ii", lhs_ii, rhs_ii),
                   ("phi-sup-agreement", abs(sup_grid - closed),
                    1e-10 * max(1.0, closed))]
    terms = {"lhs_i": lhs_i, "rhs_i": rhs_i, "lhs_ii": lhs_ii, "rhs_ii": rhs_ii,
             "phi_sup_grid": sup_grid, "phi_sup_closed": closed,
             "sup_argmax_phi": float(phi % _TWO_PI)}
    return _report("hs-pair", "hilbert-schmidt-trace-bounds", comparisons,
                   max(lhs_i, rhs_i, lhs_ii, rhs_ii), tol, terms,
                   _digest([t, s]))


# ---------------------------------------------------------------------------
# Suite runner


@dataclass(frozen=True)
class GoldenCase:
    """A fixed input with a hand-checkable outcome, run once per suite."""

    label: str
    matrices: tuple
    norm_id: Optional[str] = None
    kind: Optional[str] = None


@dataclass(frozen=True)
class CheckDef:
    """A named check: its runner, the ensembles and norms it applies to,
    and its golden witnesses."""

    name: str
    tag: str
    runner: Callable
    kinds: tuple
    norm_ids: tuple = ()
    pair: bool = False
    adapter: Optional[str] = None
    golden: tuple = ()
    # stacked(stack, norm) fills the open result memo with what the runner
    # reads from the memo for each matrix of a stack of same-size draws
    stacked: Optional[Callable] = None


_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_E21 = _E12.T.copy()
_WORKED_2X2 = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)
_SIGN_DIAG = np.diag([1.0, -1.0]).astype(np.complex128)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_NORMAL_DIAG = np.diag([1j, 2.0 + 0j])
_COMM_A = np.diag([2.0, 1.0]).astype(np.complex128)
_COMM_B = np.diag([3.0, 1.0]).astype(np.complex128)
_ZERO2 = np.zeros((2, 2), dtype=np.complex128)

_SINGLE_KINDS = ("ginibre", "hermitian", "normal", "haar_unitary",
                 "square_zero", "hermitian_contraction")


def _to_unit_ball(arr):
    return arr / max(1.0, spectral_norm(arr) * (1.0 + 1e-12))


def default_checks() -> tuple:
    """The registered checks with their applicable ensembles, norm sweeps
    and golden witnesses."""
    return (
        CheckDef(
            name="basic", tag="radius-norm-equivalence",
            runner=check_basic_bounds, kinds=_SINGLE_KINDS,
            golden=(GoldenCase("worked-2x2", (_WORKED_2X2,)),
                    GoldenCase("square-zero-e12", (_E12,))),
        ),
        CheckDef(
            name="kittaneh", tag="kittaneh-sqrt-refinement",
            runner=check_kittaneh, kinds=_SINGLE_KINDS,
            golden=(GoldenCase("square-zero-e12", (_E12,)),
                    GoldenCase("identity", (_I2,))),
        ),
        CheckDef(
            name="dragomir", tag="dragomir-buzano-refinement",
            runner=check_dragomir, kinds=_SINGLE_KINDS,
            golden=(GoldenCase("square-zero-e12", (_E12,)),
                    GoldenCase("identity", (_I2,))),
        ),
        CheckDef(
            name="inf-upper", tag="cauchy-schwarz-inf-upper",
            runner=check_inf_upper,
            kinds=("ginibre", "hermitian", "normal", "square_zero"),
            norm_ids=("op", "schatten:2", "schatten:1"),
            golden=(GoldenCase("worked-2x2-op", (_WORKED_2X2,), norm_id="op"),),
            stacked=_stacked_inf_upper,
        ),
        CheckDef(
            name="lower-bound", tag="algebra-lower-bound",
            runner=check_lower_bound,
            kinds=("ginibre", "hermitian", "normal", "square_zero"),
            norm_ids=("op", "schatten:2"),
            golden=(GoldenCase("square-zero-e12-op", (_E12,), norm_id="op"),
                    GoldenCase("identity-op", (_I2,), norm_id="op")),
            stacked=_stacked_lower_bound,
        ),
        CheckDef(
            name="norm-chain", tag="norm-radius-product-chain",
            runner=check_norm_chain, kinds=("ginibre", "normal"),
            norm_ids=("op", "schatten:2"), pair=True,
            golden=(GoldenCase("identity-pair-op", (_I2, _I2), norm_id="op"),),
        ),
        CheckDef(
            name="commutator", tag="commutator-product-bound",
            runner=check_commutator, kinds=("ginibre",),
            norm_ids=("op", "schatten:2"), pair=True,
            golden=(GoldenCase("nilpotent-pair-op", (_E12, _E21), norm_id="op"),),
        ),
        CheckDef(
            name="unitary-commutator", tag="unitary-commutator-bound",
            runner=check_unitary_commutator, kinds=("hermitian_contraction",),
            norm_ids=("op", "schatten:2"), pair=True,
            golden=(GoldenCase("sign-diagonal-op", (_SIGN_DIAG, _SIGN_DIAG),
                               norm_id="op"),),
        ),
        CheckDef(
            name="self-commutator", tag="self-commutator-bound",
            runner=check_self_commutator,
            kinds=("ginibre", "haar_unitary", "hermitian_contraction"),
            norm_ids=("op", "schatten:2"), adapter="contraction",
            golden=(GoldenCase("square-zero-e12-op", (_E12,), norm_id="op"),),
        ),
        CheckDef(
            name="product", tag="product-radius-refinement",
            runner=check_product, kinds=("ginibre",),
            norm_ids=("op", "schatten:2"), pair=True,
            golden=(GoldenCase("identity-pair-op", (_I2, _I2), norm_id="op"),),
        ),
        CheckDef(
            name="commuting-product", tag="commuting-product-bound",
            runner=check_commuting_product,
            kinds=("commuting_hermitian_pair", "anticommuting_hermitian_pair"),
            norm_ids=("op", "schatten:1", "schatten:2"), pair=True,
            golden=(GoldenCase("commuting-diagonals-op", (_COMM_A, _COMM_B),
                               norm_id="op"),
                    GoldenCase("pauli-xz-op", (_PAULI_X, _SIGN_DIAG),
                               norm_id="op")),
        ),
        CheckDef(
            name="omega-upper", tag="omega-upper-refinement",
            runner=check_omega_upper, kinds=("ginibre", "normal", "square_zero"),
            golden=(GoldenCase("square-zero-e12", (_E12,)),
                    GoldenCase("identity", (_I2,))),
        ),
        CheckDef(
            name="omega-chain", tag="omega-radius-chain",
            runner=check_omega_chain, kinds=("ginibre", "normal", "square_zero"),
            golden=(GoldenCase("worked-2x2", (_WORKED_2X2,)),),
            stacked=_stacked_omega_chain,
        ),
        CheckDef(
            name="omega-equality", tag="omega-half-radius-equivalence",
            runner=check_omega_equality, kinds=("ginibre", "square_zero"),
            golden=(GoldenCase("square-zero-e12", (_E12,)),
                    GoldenCase("zero", (_ZERO2,))),
        ),
        CheckDef(
            name="special-forms", tag="omega-closed-forms",
            runner=check_special_forms,
            kinds=("normal", "square_zero", "hermitian"),
            golden=(GoldenCase("normal-diag", (_NORMAL_DIAG,), kind="normal"),
                    GoldenCase("square-zero-e12", (_E12,), kind="square_zero"),
                    GoldenCase("pauli-x", (_PAULI_X,), kind="self_adjoint")),
        ),
        CheckDef(
            name="hs-pair", tag="hilbert-schmidt-trace-bounds",
            runner=check_hs_pair, kinds=("ginibre",), pair=True,
            golden=(GoldenCase("e12-pair", (_E12, _E12)),
                    GoldenCase("identity-pair", (_I2, _I2))),
        ),
    )


DEFAULT_CHECK_NAMES = tuple(defn.name for defn in default_checks())

_SPECIAL_KIND_MAP = {"normal": "normal", "square_zero": "square_zero",
                     "hermitian": "self_adjoint"}


@dataclass(frozen=True)
class SuiteRecord:
    """One (check, ensemble, trial) evaluation in flat, serializable form."""

    name: str
    paper_tag: str
    ensemble: str
    trial: int
    seed: int
    status: str  # ok | violation | inapplicable | error
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tolerance: float
    scale: float
    input_digest: str
    note: str = ""


@dataclass(frozen=True)
class SuiteAggregate:
    name: str
    records: int
    min_slack: float
    failures: int
    inapplicable: int
    errors: int


@dataclass(frozen=True)
class SuiteReport:
    records: tuple
    aggregates: tuple
    failures: int
    errors: int
    near_equality: tuple


def _cell_record(defn: CheckDef, norm_id, ensemble: str, trial: int, seed: int,
                 tol: float, run: Callable, note: str = ""):
    """The record of one suite cell and its report, None unless run()
    returned one.  A CheckInapplicable from run() makes an "inapplicable"
    record and any other exception an "error" record noted
    "{type}: {message}"; `note` goes on a record whose check ran."""
    try:
        report = run()
    except CheckInapplicable as exc:
        report, status, note = None, "inapplicable", str(exc)
    except Exception as exc:
        report, status, note = None, "error", f"{type(exc).__name__}: {exc}"
    else:
        status = "ok" if report.holds else "violation"
    if report is None:
        values = dict(paper_tag=defn.tag, lhs=math.nan, rhs=math.nan, slack=math.nan,
                      holds=False, tolerance=tol, scale=math.nan, input_digest="")
    else:
        values = dict(paper_tag=report.paper_tag, lhs=report.lhs, rhs=report.rhs,
                      slack=report.slack, holds=report.holds,
                      tolerance=report.tolerance, scale=report.terms.get("scale", 1.0),
                      input_digest=report.input_digest)
    name = defn.name if norm_id is None else f"{defn.name}[{norm_id}]"
    record = SuiteRecord(name=name, ensemble=ensemble, trial=trial, seed=seed,
                         status=status, note=note, **values)
    return record, report


def _draw(defn: CheckDef, spec: EnsembleSpec) -> list:
    """The matrices of one trial of `defn`."""
    if defn.pair and spec.kind not in PAIR_KINDS:
        drawn = generate_pair(spec)
    else:
        drawn = generate(spec)
    matrices = list(drawn) if isinstance(drawn, tuple) else [drawn]
    if defn.adapter == "contraction":
        matrices = [_to_unit_ball(m) for m in matrices]
    return matrices


def _run_one(defn: CheckDef, matrices, norm: Optional[NormSpec],
             kind: Optional[str], tol: float) -> InequalityReport:
    args = list(matrices)
    if defn.runner is check_special_forms:
        return defn.runner(args[0], kind, tol=tol)
    if norm is not None:
        args.append(norm)
    return defn.runner(*args, tol=tol)


def _stack_trial(cells, norm_specs: dict) -> None:
    """Run the stacked work of one trial's cells ahead of them, inside the
    trial's result memo: for each check with a `stacked` function, one call
    per norm of its sweep and per size of its draws, on the stack of those
    draws in ensemble order.  Nothing here makes a record: a draw that
    raises is left out, and a call that raises stores nothing, so the cells
    concerned compute (and fail) on their own."""
    groups = {}
    for defn, norm_ids, _, _, _, draw in cells:
        if defn.stacked is None:
            continue
        try:
            arr = as_matrix(draw()[0], square=True)
        except Exception:
            continue
        by_size = groups.setdefault(id(defn), (defn, norm_ids, {}))[2]
        by_size.setdefault(arr.shape[0], []).append(arr)
    for defn, norm_ids, by_size in groups.values():
        for norm_id in norm_ids:
            norm = norm_specs[norm_id] if norm_id else None
            try:
                hash(norm)
            except TypeError:   # the memo cannot hold its results
                continue
            for arrs in by_size.values():
                try:
                    defn.stacked(np.stack(arrs), norm)
                except Exception:
                    pass


def run_suite(ensembles: Sequence[EnsembleSpec], checks=None, trials: int = 100,
              tol: float = DEFAULT_TOL, include_golden: bool = False,
              norm: Optional[NormSpec] = None) -> SuiteReport:
    """Run the selected checks over every applicable ensemble.

    Trial i of an ensemble uses seed `spec.seed + i`, so reports are pure
    functions of (ensembles, checks, trials, tol) and aggregation is
    order-independent.  Every cell, golden or drawn, goes through
    `_cell_record`: hypothesis failures become "inapplicable" records, and
    unexpected exceptions, a failed draw included, become "error" records
    that never abort other cells.
    With include_golden, every check's golden witness cases additionally
    run once each under the pseudo-ensemble "golden" (the CLI default).
    A given `norm` replaces the norm sweep of every norm-sweeping check,
    and golden cases pinned to another norm are skipped; checks without a
    norm sweep are unaffected.  The golden cases run as one `result_memo`
    block and every trial as one more, so a radius or Omega value that
    several cells of a trial need is computed once, and the memo never
    holds more than one trial's values.  Before a trial's cells run, the
    checks that declare `stacked` work get it done for the trial's draws,
    one call per norm and matrix size (`_stack_trial`), so their slow
    searches run on stacks; the records are the same as with one matrix
    at a time.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    available = {defn.name: defn for defn in default_checks()}
    if checks is None:
        selected = [available[name] for name in DEFAULT_CHECK_NAMES]
    else:
        selected = []
        for item in checks:
            if isinstance(item, CheckDef):
                selected.append(item)
            elif item in available:
                selected.append(available[item])
            else:
                raise ValueError(f"unknown check {item!r} "
                                 f"(known: {', '.join(DEFAULT_CHECK_NAMES)})")
    norm_specs = registry()
    if norm is not None:
        norm_specs[norm.id] = norm
    sweeps = []
    for defn in selected:
        norm_ids = defn.norm_ids if defn.norm_ids else (None,)
        if norm is not None and defn.norm_ids:
            norm_ids = (norm.id,)
        sweeps.append(norm_ids)
    records = []
    # near-equality notes per check: its golden cases, then one list per
    # ensemble in trial order; joined in check order at the end
    notes = [[[] for _ in range(1 + len(ensembles))] for _ in selected]
    if include_golden:
        with result_memo():
            for defn, norm_ids, (near, *_) in zip(selected, sweeps, notes):
                for idx, case in enumerate(defn.golden):
                    if case.norm_id is not None and case.norm_id not in norm_ids:
                        continue
                    case_norm = norm_specs[case.norm_id] if case.norm_id else None
                    rec, report = _cell_record(
                        defn, case.norm_id, "golden", idx, 0, tol,
                        lambda: _run_one(defn, case.matrices, case_norm, case.kind, tol),
                        note=case.label)
                    if report is not None and report.terms.get("near_equality"):
                        near.append(f"{rec.name} golden:{case.label}")
                    records.append(rec)
    for trial in range(trials):
        with result_memo():
            cells = []
            for defn, norm_ids, (_, *by_spec) in zip(selected, sweeps, notes):
                for spec, near in zip(ensembles, by_spec):
                    if spec.kind in defn.kinds:
                        seed = spec.seed + trial
                        # drawn once per trial, on first use; a draw that
                        # raises makes an error record for every norm id
                        draw = functools.cache(functools.partial(
                            _draw, defn, EnsembleSpec(spec.kind, spec.dim, seed, spec.scale)))
                        cells.append((defn, norm_ids, spec, near, seed, draw))
            _stack_trial(cells, norm_specs)
            for defn, norm_ids, spec, near, seed, draw in cells:
                ens_name = ensemble_id(spec.kind, spec.dim)
                kind_arg = _SPECIAL_KIND_MAP.get(spec.kind)
                for norm_id in norm_ids:
                    trial_norm = norm_specs[norm_id] if norm_id else None
                    rec, report = _cell_record(
                        defn, norm_id, ens_name, trial, seed, tol,
                        lambda: _run_one(defn, draw(), trial_norm, kind_arg, tol))
                    if report is not None and report.terms.get("near_equality"):
                        near.append(f"{rec.name} {ens_name} trial {trial} "
                                    f"seed {seed} digest {report.input_digest}")
                    records.append(rec)
    near = [note for per_check in notes for part in per_check for note in part]
    records.sort(key=lambda r: (r.name, r.ensemble, r.trial))
    by_name = {}
    for rec in records:
        by_name.setdefault(rec.name, []).append(rec)
    aggregates = []
    failures = 0
    errors = 0
    for name in sorted(by_name):
        group = by_name[name]
        slacks = [r.slack for r in group if r.status in ("ok", "violation")]
        fail = sum(1 for r in group if r.status == "violation")
        errs = sum(1 for r in group if r.status == "error")
        inap = sum(1 for r in group if r.status == "inapplicable")
        failures += fail
        errors += errs
        aggregates.append(SuiteAggregate(
            name=name, records=len(group),
            min_slack=min(slacks) if slacks else math.nan,
            failures=fail, inapplicable=inap, errors=errs))
    return SuiteReport(records=tuple(records), aggregates=tuple(aggregates),
                       failures=failures, errors=errors, near_equality=tuple(near))
