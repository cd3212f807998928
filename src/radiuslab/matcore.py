"""Dense complex matrix kernels.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128``;
products, sums and scalar multiples are ordinary numpy arithmetic.  This
module adds the operator-theoretic helpers the rest of the package is built
on: adjoints, Cartesian (real/imaginary) parts, phase rotations, Hermitian
eigendecompositions with an explicit residual contract, spectral and
Frobenius norms, and the Cayley-style unitary completion of a Hermitian
contraction.

Hermitian-only routines accept inputs within a relative hermiticity
tolerance and symmetrize before use, so downstream math stays exact on the
Hermitian subspace.  Everything here is pure: no function mutates its
arguments and there is no module state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Acceptance tolerance for Hermitian-only routines (relative to max(1, ||A||_F)).
HERMITIAN_RTOL = 1e-10
# Allowed overshoot of ||S|| beyond 1 for contraction-only routines.
CONTRACTION_RTOL = 1e-9
# Residual contract for the Hermitian eigensolver, relative to max(1, ||A||_F).
EIGEN_RESIDUAL_RTOL = 1e-12


class MatrixShapeError(ValueError):
    """Input is not a matrix of the required shape."""


class NonFiniteEntry(ValueError):
    """A matrix entry is NaN or infinite."""


class NonHermitianInput(ValueError):
    """Input is farther from Hermitian than the acceptance tolerance."""


class NotAContraction(ValueError):
    """Hermitian input has spectral norm beyond 1 + CONTRACTION_RTOL."""


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce `a` to a finite complex128 matrix, optionally requiring squareness."""
    arr = np.array(a, dtype=np.complex128, copy=True, order="C")
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise MatrixShapeError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("matrix entries must be finite (no NaN/Inf)")
    return arr


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2)).copy()


def re_part(a) -> np.ndarray:
    """Hermitian real part (A + A*) / 2 of a square matrix, formed on
    `binary_scaled(a)` and scaled back, so that it cannot overflow."""
    arr, exponent = binary_scaled(as_matrix(a, square=True))
    return binary_unscaled((arr + adjoint(arr)) / 2, exponent)


def im_part(a) -> np.ndarray:
    """Hermitian imaginary part (A - A*) / (2i) of a square matrix, formed
    as `re_part` is."""
    arr, exponent = binary_scaled(as_matrix(a, square=True))
    return binary_unscaled((arr - adjoint(arr)) / 2j, exponent)


def rotate(a, theta: float) -> np.ndarray:
    """Multiply by the unit phase exp(i*theta)."""
    if theta == 0.0:
        return np.array(a, dtype=np.complex128, copy=True)
    return np.exp(1j * theta) * np.asarray(a, dtype=np.complex128)


def binary_scaled(a):
    """(A / 2^e, e) for a matrix A, or for each matrix of a stack, with e
    chosen so that the largest real or imaginary part of an entry lies in
    [1/2, 1) (e = 0 for a zero matrix).  Only exponents change, so the
    scaling is exact except for entries it pushes below the normal range;
    squares and products of the scaled entries can neither overflow nor
    underflow to zero.
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    exponent = np.frexp(np.abs(parts).max(axis=(-2, -1), initial=0.0))[1]
    return np.ldexp(parts, -exponent[..., None, None]).view(np.complex128), exponent


def binary_unscaled(value, exponent):
    """value * 2^exponent (elementwise for arrays, part by part for a
    C-contiguous complex matrix), inf where that overflows: undoes
    `binary_scaled` on a norm of the scaled matrix, or on a matrix."""
    with np.errstate(over="ignore"):
        if np.iscomplexobj(value):
            return np.ldexp(value.view(np.float64), exponent).view(np.complex128)
        return np.ldexp(value, exponent)


def frobenius_norm(a):
    """sqrt(sum |a_ij|^2) of a matrix, or of each matrix of a stack (an
    array), computed on `binary_scaled(a)` so no square overflows or
    underflows."""
    arr, exponent = binary_scaled(a)
    return binary_unscaled(np.sqrt(np.sum(np.abs(arr) ** 2, axis=(-2, -1))), exponent)


def hermitian_defect(a: np.ndarray) -> float:
    """Frobenius distance from A to its Hermitian part's symmetrization, ||A - A*||_F."""
    arr = np.asarray(a, dtype=np.complex128)
    return frobenius_norm(arr - adjoint(arr))


def require_hermitian(a, tol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Return the symmetrized copy (A + A*)/2, or raise NonHermitianInput.

    Inputs whose defect ||A - A*||_F exceeds tol * max(1, ||A||_F) are
    rejected; anything inside the tolerance is symmetrized so downstream
    Hermitian-only math is exact.
    """
    arr = as_matrix(a, square=True)
    scale = max(1.0, frobenius_norm(arr))
    if hermitian_defect(arr) > tol * scale:
        raise NonHermitianInput(
            f"matrix is not Hermitian within tolerance {tol:g} (defect "
            f"{hermitian_defect(arr):.3e}, scale {scale:.3e})"
        )
    return (arr + adjoint(arr)) / 2


@dataclass(frozen=True)
class EigenResult:
    """Full Hermitian spectrum: ascending eigenvalues, orthonormal column
    eigenvectors, and the residual max_j ||A v_j - lambda_j v_j||."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def hermitian_eigs(a, tol: float = HERMITIAN_RTOL) -> EigenResult:
    """Eigendecomposition of a Hermitian matrix with a residual contract.

    The input must be Hermitian to `tol` (relative); it is symmetrized
    before solving.  Eigenvalues come back ascending with orthonormal
    eigenvectors, and the returned residual is guaranteed below
    EIGEN_RESIDUAL_RTOL * max(1, ||A||_F).
    """
    return _checked_eigh(require_hermitian(a, tol))


def _checked_eigh(h: np.ndarray) -> EigenResult:
    """`hermitian_eigs` of an already symmetrized matrix h."""
    vals, vecs = np.linalg.eigh(h)
    residual = float(np.max(np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)))
    bound = EIGEN_RESIDUAL_RTOL * max(1.0, frobenius_norm(h))
    if residual > bound:
        raise ArithmeticError(
            f"eigensolver residual {residual:.3e} exceeds contract {bound:.3e}"
        )
    return EigenResult(eigenvalues=vals, eigenvectors=vecs, residual=residual)


def spectral_norm(a) -> float:
    """Largest singular value of a matrix: `spectral_norm_many` on the
    one-matrix stack."""
    return float(spectral_norm_many(as_matrix(a)[None])[0])


def spectral_norm_many(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack, sqrt(lambda_max(A* A))
    batched through eigvalsh on `binary_scaled` copies, so no Gram matrix
    overflows or underflows."""
    arr, exponent = binary_scaled(stack)
    gram = np.matmul(np.conj(np.swapaxes(arr, -2, -1)), arr)
    return binary_unscaled(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)), exponent)


def hermitian_norm(h: np.ndarray):
    """Operator norm of a Hermitian matrix, or of each matrix of a stack of
    them: the largest |eigenvalue|."""
    return np.abs(np.linalg.eigvalsh(h)).max(axis=-1)


def cayley_unitary(s, tol: float = HERMITIAN_RTOL) -> np.ndarray:
    """U = S + i (I - S^2)^(1/2) for a Hermitian contraction S.

    U is unitary with Re(U) = S; both postconditions are verified to 1e-10
    on the symmetrized operand before returning.
    """
    h = require_hermitian(s, tol)
    eig = _checked_eigh(h)
    top = float(np.max(np.abs(eig.eigenvalues))) if eig.eigenvalues.size else 0.0
    if top > 1.0 + CONTRACTION_RTOL:
        raise NotAContraction(f"spectral norm {top:.12g} exceeds 1 + {CONTRACTION_RTOL:g}")
    lam = np.clip(eig.eigenvalues, -1.0, 1.0)
    phases = lam + 1j * np.sqrt(1.0 - lam * lam)
    v = eig.eigenvectors
    u = (v * phases[None, :]) @ adjoint(v)
    n = u.shape[0]
    unitary_defect = frobenius_norm(adjoint(u) @ u - np.eye(n))
    real_defect = frobenius_norm(re_part(u) - h)
    if unitary_defect > 1e-10 or real_defect > 1e-10:
        raise ArithmeticError(
            f"cayley_unitary postcondition failed: ||U*U - I||={unitary_defect:.3e}, "
            f"||Re U - S||={real_defect:.3e}"
        )
    return u
