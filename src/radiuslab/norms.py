"""Pluggable matrix norms with the metadata the inequality checkers need.

A NormSpec bundles an evaluator with declared properties (self-adjoint,
algebra/submultiplicative, weakly unitarily invariant) and, where known in
closed form, the supremum of the norm over the unitary group per dimension.
Every shipped norm has one kernel, its `evaluate_many` on a stack, and
its `evaluate` is that kernel on the one-matrix stack (`_one_matrix`).
Flags are declarations, not runtime branches: `validate_norm` audits each
declared flag on seeded random matrices and a flag failure is a test
failure.  The unitary supremum is a closed-form constant rather than an
online optimization because sampling the unitary group can only produce
lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .matcore import (adjoint, as_matrix, binary_scaled, binary_unscaled, frobenius_norm,
                      spectral_norm_many)
from .ensembles import EnsembleSpec, generate
from .radius import RadiusResult, numerical_radius_many, omega_norm_many


@dataclass(frozen=True)
class NormSpec:
    """A norm on square complex matrices plus its declared properties.

    evaluate must be pure; evaluate_many maps a (m, n, n) stack to its m
    values and must agree with evaluate on every slice (the angle searches
    evaluate N only through it, one stack of operands per step).  Every
    shipped norm's evaluate is its evaluate_many on the one-matrix stack,
    so the two agree bitwise.
    unitary_sup maps a dimension to sup { N(U) : U unitary } or is None
    when no closed form is known.  The radius searches assume
    N(-A) == N(A), which homogeneity (audited by `validate_norm`) gives, and
    search the angle over half the period.  `radius`, when given, computes
    w_N of each matrix of a (m, n, n) stack (a list of RadiusResult)
    itself, and `generalized_radius_many` returns it instead of searching
    the angle grid.
    """

    id: str
    evaluate: Callable[[np.ndarray], float]
    evaluate_many: Callable[[np.ndarray], np.ndarray]
    self_adjoint: bool
    algebra: bool
    weakly_unitarily_invariant: bool
    unitary_sup: Optional[Callable[[int], float]] = None
    radius: Optional[Callable[[np.ndarray], list[RadiusResult]]] = None


class UnknownNormId(ValueError):
    """A norm id string is not understood by the registry."""


def _one_matrix(evaluate_many) -> Callable[[np.ndarray], float]:
    """The evaluate of a norm: its evaluate_many on the one-matrix stack."""
    return lambda a: float(evaluate_many(as_matrix(a, square=True)[None])[0])


def operator_norm_spec() -> NormSpec:
    """The usual operator norm: largest singular value.  Its radius is the
    numerical radius, since ||H|| = max(lambda_max(H), lambda_max(-H)) for
    Hermitian H and Re(exp(i (theta + pi)) T) = -Re(exp(i theta) T): a
    stack's radii are one `numerical_radius_many` call."""
    return NormSpec(
        id="op",
        evaluate=_one_matrix(spectral_norm_many),
        self_adjoint=True,
        algebra=True,
        weakly_unitarily_invariant=True,
        unitary_sup=lambda n: 1.0,
        evaluate_many=spectral_norm_many,
        # looked up when called, so a rebinding of numerical_radius_many reaches it
        radius=lambda stack: numerical_radius_many(stack),
    )


def schatten_norm_spec(p: float) -> NormSpec:
    """Schatten p-norm (sum of singular values to the p), p >= 1 or inf.

    p = 2 is the Frobenius / Hilbert-Schmidt norm; p = inf collapses to the
    operator norm.  sup over unitaries is n^(1/p) since every unitary has
    all singular values equal to 1.
    """
    if not (p >= 1.0):
        raise ValueError(f"Schatten norms need p >= 1, got {p}")
    if math.isinf(p):
        spec = operator_norm_spec()
        return replace(spec, id="schatten:inf")

    if p == 2.0:
        evaluate_many = frobenius_norm
    else:
        def evaluate_many(stack):
            # singular values straight from the SVD: square roots of Gram
            # eigenvalues would turn the rounding noise of zero singular
            # values into ~1e-8 terms.  On the binary-scaled stack, so no
            # power sv ** p overflows or underflows.
            arr, exponent = binary_scaled(stack)
            sv = np.linalg.svd(arr, compute_uv=False)
            return binary_unscaled(np.sum(sv ** p, axis=-1) ** (1.0 / p), exponent)

    return NormSpec(
        id=f"schatten:{p:g}",
        evaluate=_one_matrix(evaluate_many),
        self_adjoint=True,
        algebra=True,
        weakly_unitarily_invariant=True,
        unitary_sup=lambda n: float(n) ** (1.0 / p),
        evaluate_many=evaluate_many,
    )


def frobenius_norm_spec() -> NormSpec:
    return schatten_norm_spec(2.0)


def numerical_radius_norm_spec() -> NormSpec:
    """The numerical radius w as a norm.

    Self-adjoint and weakly unitarily invariant, but NOT an algebra norm:
    w(TS) <= w(T) w(S) fails in general (nilpotent pairs witness it), only
    the factor-4 chain holds.  w(U) = 1 for every unitary U (unitaries are
    normal), so the unitary supremum is 1.  `evaluate_many` takes a whole
    stack in one `numerical_radius_many` call, each value bitwise the one
    `numerical_radius` gives for that matrix alone.  The operands of a
    radius, Re(exp(i theta) T), are Hermitian, so each is answered from one
    eigvalsh as ||Re(exp(i theta) T)|| (one evaluation), and the level-set
    engine runs on none of them: the identity w_wnum(T) = w(T) compares
    the grid path of ||Re(exp(i theta) T)|| with the level-set w(T).
    """
    def evaluate_many(stack):
        return np.array([res.value for res in numerical_radius_many(stack)])

    return NormSpec(
        id="wnum",
        evaluate=_one_matrix(evaluate_many),
        self_adjoint=True,
        algebra=False,
        weakly_unitarily_invariant=True,
        unitary_sup=lambda n: 1.0,
        evaluate_many=evaluate_many,
    )


def omega_norm_spec(**opts) -> NormSpec:
    """The Omega norm: sup of ||zeta T + eta T*|| over the coefficient ball,
    evaluated with the keyword options `opts` of `omega_norm_many`.

    Self-adjoint and weakly unitarily invariant (conjugation commutes with
    the coefficient combination); not declared an algebra norm.  Every
    unitary attains Omega(U) = sqrt(2): choosing zeta = 1/sqrt(2),
    eta = conj(mu)/sqrt(2) for an eigenvalue mu of U*^2 puts the combination
    at modulus sqrt(2) on the corresponding eigenvector.  `evaluate_many`
    solves a whole stack in one `omega_norm_many` call.
    """
    def evaluate_many(stack):
        return np.array([res.value for res in omega_norm_many(stack, **opts)])

    return NormSpec(
        id="omega",
        evaluate=_one_matrix(evaluate_many),
        self_adjoint=True,
        algebra=False,
        weakly_unitarily_invariant=True,
        unitary_sup=lambda n: math.sqrt(2.0),
        evaluate_many=evaluate_many,
    )


def registry() -> dict[str, NormSpec]:
    """The norms shipped with the CLI, keyed by id."""
    specs = [
        operator_norm_spec(),
        schatten_norm_spec(1.0),
        schatten_norm_spec(2.0),
        numerical_radius_norm_spec(),
        omega_norm_spec(),
    ]
    return {spec.id: spec for spec in specs}


def parse_norm_id(text: str) -> NormSpec:
    """Resolve a norm id: 'op', 'schatten:p' (p decimal or 'inf'), 'wnum',
    'omega'."""
    if text == "op":
        return operator_norm_spec()
    if text == "wnum":
        return numerical_radius_norm_spec()
    if text == "omega":
        return omega_norm_spec()
    if text.startswith("schatten:"):
        arg = text.split(":", 1)[1]
        if arg == "inf":
            return schatten_norm_spec(math.inf)
        try:
            p = float(arg)
        except ValueError:
            raise UnknownNormId(f"norm id {text!r}: p is not a number") from None
        if not (p >= 1.0):
            raise UnknownNormId(f"norm id {text!r}: Schatten p must be >= 1")
        return schatten_norm_spec(p)
    raise UnknownNormId(
        f"norm id {text!r} not understood (known: op, schatten:p, wnum, omega)"
    )


@dataclass(frozen=True)
class AxiomAudit:
    """Worst violation observed for one axiom or declared flag."""

    name: str
    worst: float
    tolerance: float
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class NormValidation:
    """validate_norm output: per-axiom audits plus any submultiplicativity
    witness found for norms that do not claim the algebra property."""

    norm_id: str
    dim: int
    trials: int
    seed: int
    audits: tuple[AxiomAudit, ...] = field(default_factory=tuple)
    algebra_witness: str = ""
    passed: bool = True


_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def validate_norm(spec: NormSpec, dim: int, trials: int, seed: int) -> NormValidation:
    """Audit the norm axioms and every declared flag on seeded matrices.

    Tolerances (relative to max(1, scale of the quantities involved)):
    zero and homogeneity and self-adjointness 1e-12, triangle and algebra
    and weak unitary invariance 1e-10.  For norms with algebra=False a
    witness search additionally tries to exhibit a submultiplicativity
    violation (the nilpotent pair E12, E21 plus the random pairs); finding
    one confirms the flag and is reported, not failed.
    """
    N = spec.evaluate
    worst = {
        "zero": 0.0, "homogeneity": 0.0, "triangle": 0.0,
        "self_adjoint": 0.0, "algebra": 0.0, "weak_unitary_invariance": 0.0,
    }
    witness = {key: "" for key in worst}

    def note(key: str, violation: float, label: str) -> None:
        if violation > worst[key]:
            worst[key] = violation
            witness[key] = label

    note("zero", abs(N(np.zeros((dim, dim), dtype=np.complex128))), "zero matrix")

    algebra_witness = ""
    if not spec.algebra and dim >= 2:
        a = np.zeros((dim, dim), dtype=np.complex128)
        a[:2, :2] = _E12
        b = adjoint(a)
        gap = N(a @ b) - N(a) * N(b)
        if gap > 1e-8:
            algebra_witness = f"nilpotent pair E12/E21 (gap {gap:.6g})"

    for t in range(trials):
        s = seed + t
        a = generate(EnsembleSpec("ginibre", dim, s))
        b = generate(EnsembleSpec("ginibre", dim, s + 0x10000000))
        u = generate(EnsembleSpec("haar_unitary", dim, s + 0x20000000))
        na, nb = N(a), N(b)

        c = complex(generate(EnsembleSpec("ginibre", 1, s + 0x30000000))[0, 0])
        note("homogeneity", abs(N(c * a) - abs(c) * na) / max(1.0, abs(c) * na),
             f"seed {s}")
        note("triangle", (N(a + b) - (na + nb)) / max(1.0, na + nb), f"seed {s}")
        if spec.self_adjoint:
            note("self_adjoint", abs(N(adjoint(a)) - na) / max(1.0, na), f"seed {s}")
        if spec.algebra:
            note("algebra", (N(a @ b) - na * nb) / max(1.0, na * nb), f"seed {s}")
        elif not algebra_witness:
            gap = N(a @ b) - na * nb
            if gap > 1e-8 * max(1.0, na * nb):
                algebra_witness = f"seed {s} (gap {gap:.6g})"
        if spec.weakly_unitarily_invariant:
            note("weak_unitary_invariance",
                 abs(N(adjoint(u) @ a @ u) - na) / max(1.0, na), f"seed {s}")

    tolerances = {
        "zero": 1e-12, "homogeneity": 1e-12, "triangle": 1e-10,
        "self_adjoint": 1e-12, "algebra": 1e-10, "weak_unitary_invariance": 1e-10,
    }
    applicable = ["zero", "homogeneity", "triangle"]
    if spec.self_adjoint:
        applicable.append("self_adjoint")
    if spec.algebra:
        applicable.append("algebra")
    if spec.weakly_unitarily_invariant:
        applicable.append("weak_unitary_invariance")
    audits = tuple(
        AxiomAudit(name=key, worst=worst[key], tolerance=tolerances[key],
                   passed=worst[key] <= tolerances[key], witness=witness[key])
        for key in applicable
    )
    return NormValidation(
        norm_id=spec.id, dim=dim, trials=trials, seed=seed, audits=audits,
        algebra_witness=algebra_witness,
        passed=all(a.passed for a in audits),
    )
