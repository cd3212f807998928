"""Reference values for radiuslab outputs, computed with numpy alone.

Nothing here calls radiuslab: norms come from ``np.linalg.svd``, the
numerical radius from ``np.linalg.eigvalsh`` on a dense theta grid
followed by nested finer grids around the best coarse peaks.  The
functions return plain floats; `check_compute` turns a ``compute``
response into a list of named mismatches (empty when every value agrees).
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi

# relative tolerances, against max(1, |reference|)
RTOL_NORM = 1e-10      # closed-form norms and identities
RTOL_RADIUS = 1e-9     # optimized radii against the dense-grid oracle
RTOL_NESTED = 1e-7     # radii whose inner norm is itself an optimizer

_COARSE = 512
_FINE = 65
_LEVELS = 3
_TOP = 6
_CHUNK = 256


def parts(t: np.ndarray):
    """Hermitian real and imaginary parts of a square matrix."""
    th = t.conj().T
    return (t + th) / 2, (t - th) / 2j


def svdvals(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def op_norm(a: np.ndarray) -> float:
    return float(svdvals(a).max())


def fro_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(svdvals(a) ** 2)))


def nuclear_norm(a: np.ndarray) -> float:
    return float(np.sum(svdvals(a)))


# norms of a stack of matrices, by radiuslab norm id
STACK_NORMS = {
    "op": lambda s: svdvals(s).max(axis=-1),
    "schatten:1": lambda s: svdvals(s).sum(axis=-1),
    "schatten:2": lambda s: np.sqrt((svdvals(s) ** 2).sum(axis=-1)),
}


def _rotated_stack(re, im, thetas):
    return (np.cos(thetas)[:, None, None] * re - np.sin(thetas)[:, None, None] * im)


def _chunked(f_stack, re, im, thetas):
    out = np.empty(thetas.size)
    for a in range(0, thetas.size, _CHUNK):
        out[a:a + _CHUNK] = f_stack(_rotated_stack(re, im, thetas[a:a + _CHUNK]))
    return out


def sup_over_theta(f_many, period: float) -> float:
    """max of a periodic objective: a uniform grid of `_COARSE` points, then
    `_LEVELS` nested grids of `_FINE` points around each of the `_TOP`
    best cyclic local maxima.  The last grid spacing is (2/64)^3, about
    3e-5, of the coarse one (under 4e-7 rad), and a smooth peak loses only
    the square of that, so the value is exact to rounding."""
    thetas = np.arange(_COARSE) * (period / _COARSE)
    vals = f_many(thetas)
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(vals))])
    peaks = peaks[np.argsort(-vals[peaks], kind="stable")][:_TOP]
    best = float(vals.max())
    h = period / _COARSE
    for i in peaks:
        center, half = float(thetas[i]), h
        for _ in range(_LEVELS):
            ts = np.linspace(center - half, center + half, _FINE)
            v = f_many(ts)
            j = int(np.argmax(v))
            best = max(best, float(v[j]))
            center, half = float(ts[j]), 2.0 * half / (_FINE - 1)
    return best


def numerical_radius(t: np.ndarray) -> float:
    """w(T) = max over theta of lambda_max(Re(e^{i theta} T))."""
    re, im = parts(t)
    top = lambda s: np.linalg.eigvalsh(s)[..., -1]
    return sup_over_theta(lambda ts: _chunked(top, re, im, ts), TWO_PI)


def norm_radius(t: np.ndarray, norm_id: str) -> float:
    """w_N(T) = max over theta of N(Re(e^{i theta} T)) for an svd-based N."""
    re, im = parts(t)
    f = STACK_NORMS[norm_id]
    return sup_over_theta(lambda ts: _chunked(f, re, im, ts), math.pi)


def hs_radius_sq(t: np.ndarray) -> float:
    """||T||_F^2 / 2 + |tr T^2| / 2, the squared Frobenius-norm radius."""
    return 0.5 * fro_norm(t) ** 2 + 0.5 * abs(complex(np.trace(t @ t)))


def is_normal(t: np.ndarray) -> bool:
    th = t.conj().T
    return float(np.linalg.norm(t @ th - th @ t)) <= 1e-10 * max(1.0, fro_norm(t) ** 2)


def is_square_zero(t: np.ndarray) -> bool:
    return float(np.linalg.norm(t @ t)) <= 1e-10 * max(1.0, fro_norm(t) ** 2)


def close(value: float, ref: float, rtol: float) -> bool:
    return abs(float(value) - float(ref)) <= rtol * max(1.0, abs(float(ref)))


def check_compute(t: np.ndarray, norm_id: str, response: dict, kind: str) -> list:
    """Every value of one ``radiuslab compute --format machine`` record,
    checked against the oracle.  `kind` is the ensemble the matrix was
    drawn from; its structure is verified here before its closed forms
    are applied.  Returns the names of the failed checks."""
    bad = []

    def expect(name, ok):
        if not ok:
            bad.append(name)

    re, im = parts(t)
    nrm = op_norm(t)
    w = numerical_radius(t)
    get = lambda key: float(response[key])

    expect("operator_norm", close(get("operator_norm"), nrm, RTOL_NORM))
    expect("frobenius_norm", close(get("frobenius_norm"), fro_norm(t), RTOL_NORM))
    expect("re_norm", close(get("re_norm"), op_norm(re), RTOL_NORM))
    expect("im_norm", close(get("im_norm"), op_norm(im), RTOL_NORM))
    expect("hs_radius_sq", close(get("hs_radius_sq"), hs_radius_sq(t), RTOL_NORM))

    rw = get("w")
    tol = RTOL_RADIUS * max(1.0, nrm)
    expect("w", close(rw, w, RTOL_RADIUS))
    expect("w-norm-equivalence", nrm / 2 - tol <= rw <= nrm + tol)
    theta = get("w_argmax_theta")
    expect("w-argmax", close(op_norm(math.cos(theta) * re - math.sin(theta) * im),
                             rw, RTOL_RADIUS))
    expect("w_omega", close(get("w_omega"), SQRT2 * w, RTOL_RADIUS))

    # the generalized radius for the requested norm
    wn = get(f"w_N[{norm_id}]")
    theta_n = get(f"w_N[{norm_id}]_argmax_theta")
    at_theta = math.cos(theta_n) * re - math.sin(theta_n) * im
    if norm_id in STACK_NORMS:
        ref = norm_radius(t, norm_id)
        expect("w_N", close(wn, ref, RTOL_RADIUS))
        expect("w_N-argmax", close(float(STACK_NORMS[norm_id](at_theta[None])[0]),
                                   wn, RTOL_RADIUS))
        if norm_id == "op":
            expect("w_N-op-is-w", close(wn, w, RTOL_RADIUS))
        if norm_id == "schatten:2":
            expect("w_N-hs-identity", close(wn ** 2, hs_radius_sq(t), RTOL_RADIUS))
    elif norm_id == "wnum":
        # w of a Hermitian matrix is its operator norm, so w_wnum = w
        expect("w_N-wnum-is-w", close(wn, w, RTOL_RADIUS))
        expect("w_N-argmax", close(op_norm(at_theta), wn, RTOL_RADIUS))
    elif norm_id == "omega":
        # Omega of a Hermitian matrix is sqrt(2) times its operator norm
        expect("w_N-omega-is-sqrt2-w", close(wn, SQRT2 * w, RTOL_NESTED))
        expect("w_N-argmax", close(SQRT2 * op_norm(at_theta), wn, RTOL_NESTED))
    else:
        bad.append(f"unknown norm id {norm_id}")

    # the Omega norm: value at its argmax, then the refinement chain
    om = get("omega")
    s, psi = get("omega_argmax_s"), get("omega_argmax_psi")
    at_max = math.cos(s) * t + complex(math.cos(psi), math.sin(psi)) * math.sin(s) * t.conj().T
    expect("omega-argmax", close(op_norm(at_max), om, RTOL_RADIUS))
    th = t.conj().T
    branch_gram = math.sqrt(op_norm(t @ th + th @ t))
    branch_square = math.sqrt(nrm ** 2 + numerical_radius(t @ t))
    tol_om = RTOL_RADIUS * max(1.0, om)
    expect("omega-lower", w <= om / SQRT2 + tol_om)
    expect("omega-upper", om <= min(branch_gram, branch_square) + tol_om)

    if kind in ("normal", "hermitian"):
        expect("normal-structure", is_normal(t))
        expect("normal-omega", close(om, SQRT2 * nrm, RTOL_RADIUS))
        expect("normal-w", close(rw, nrm, RTOL_RADIUS))
    elif kind == "square_zero":
        expect("square-zero-structure", is_square_zero(t))
        expect("square-zero-w", close(rw, nrm / 2, RTOL_RADIUS))
        expect("square-zero-omega", close(om, nrm, RTOL_RADIUS))
    return bad
