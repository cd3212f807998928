"""Seeded random-matrix ensembles with exact structural guarantees.

Every ensemble is a pure function of (kind, dim, seed, scale) and reproduces
bitwise across runs and platforms.  The randomness source is fixed at the
bit level so other implementations can match it:

* 64-bit counter stream: ``state_k = (seed + k * 0x9E3779B97F4A7C15) mod 2^64``
  for k = 1, 2, ... (splitmix-style golden-ratio increment).
* Output mix of each state z (all arithmetic mod 2^64)::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

* Uniform doubles: ``u = (z >> 11) * 2^-53`` in [0, 1); the strictly
  positive variant uses ``((z >> 11) + 1) * 2^-53`` in (0, 1].
* Standard normals come in Box-Muller pairs from consecutive uniforms
  (u1 positive, u2 half-open): ``r = sqrt(-2 ln u1)``,
  ``(r cos(2 pi u2), r sin(2 pi u2))``.
* A standard complex Gaussian is ``(x + i y) / sqrt(2)`` for a normal pair
  (x, y), so E|z|^2 = 1.  Matrix entries are drawn in row-major order.

Each kind consumes a single stream; where a kind needs several objects
(e.g. a Haar basis plus a diagonal) they are drawn back-to-back from that
one stream, in the order stated in the generator docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import adjoint, spectral_norm

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

KINDS = (
    "ginibre",
    "hermitian",
    "normal",
    "haar_unitary",
    "square_zero",
    "hermitian_contraction",
    "commuting_hermitian_pair",
    "anticommuting_hermitian_pair",
)

PAIR_KINDS = ("commuting_hermitian_pair", "anticommuting_hermitian_pair")

# CLI-facing short ids.
KIND_IDS = {
    "ginibre": "ginibre",
    "hermitian": "hermitian",
    "normal": "normal",
    "unitary": "haar_unitary",
    "nil": "square_zero",
    "contraction": "hermitian_contraction",
    "commute": "commuting_hermitian_pair",
    "anticommute": "anticommuting_hermitian_pair",
}


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """The raw 64-bit output stream for `seed`, entries offset+1 .. offset+count."""
    if count < 0:
        raise ValueError("count must be non-negative")
    with np.errstate(over="ignore"):
        k = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
        z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + k * np.uint64(_GAMMA)) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


class Stream:
    """Sequential view over the splitmix64 output of one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cursor = 0

    def raw(self, count: int) -> np.ndarray:
        out = splitmix64(self.seed, count, offset=self._cursor)
        self._cursor += count
        return out

    def uniforms(self, count: int) -> np.ndarray:
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniforms_pos(self, count: int) -> np.ndarray:
        return ((self.raw(count) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def gaussians(self, count: int) -> np.ndarray:
        """Standard normal draws, Box-Muller pairs; an odd tail discards one."""
        pairs = (count + 1) // 2
        u1 = self.uniforms_pos(pairs)
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(2.0 * math.pi * u2)
        out[1::2] = r * np.sin(2.0 * math.pi * u2)
        return out[:count]

    def cgaussians(self, count: int) -> np.ndarray:
        """Standard complex normals (x + iy)/sqrt(2), E|z|^2 = 1."""
        g = self.gaussians(2 * count)
        return (g[0::2] + 1j * g[1::2]) / math.sqrt(2.0)


@dataclass(frozen=True)
class EnsembleSpec:
    """A reproducible matrix (or matrix pair) draw."""

    kind: str
    dim: int
    seed: int
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be a positive finite real")


def _ginibre(stream: Stream, n: int, scale: float) -> np.ndarray:
    return stream.cgaussians(n * n).reshape(n, n) * scale


def _hermitian(stream: Stream, n: int, scale: float) -> np.ndarray:
    g = _ginibre(stream, n, scale)
    return (g + adjoint(g)) / 2


def _haar_unitary(stream: Stream, n: int) -> np.ndarray:
    # QR of a Ginibre draw, with the R-diagonal phases folded into Q so the
    # result is Haar distributed rather than biased by the QR sign convention.
    g = stream.cgaussians(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0  # zero diagonal has probability zero; keep the phase finite
    return q * (d / np.abs(d))[None, :]


def _normal(stream: Stream, n: int, scale: float) -> np.ndarray:
    u = _haar_unitary(stream, n)
    d = stream.cgaussians(n) * scale
    return (u * d[None, :]) @ adjoint(u)


def _check_dim(kind: str, n: int) -> None:
    """Raise ValueError if `kind` has no draw of dimension n (beyond n >= 1)."""
    if kind == "square_zero" and n < 2:
        raise ValueError("square_zero needs dim >= 2")
    if kind == "anticommuting_hermitian_pair" and n % 2 != 0:
        raise ValueError("anticommuting_hermitian_pair needs an even dim")


def _square_zero(stream: Stream, n: int, scale: float) -> np.ndarray:
    _check_dim("square_zero", n)
    u = stream.cgaussians(n)
    v = stream.cgaussians(n)
    # two Gram-Schmidt passes push |<v, u>| to rounding level, so T^2 = 0
    # holds to ~1e-16 relative
    for _ in range(2):
        v = v - (np.vdot(u, v) / np.vdot(u, u)) * u
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return scale * np.outer(u, np.conj(v))


def _hermitian_contraction(stream: Stream, n: int) -> np.ndarray:
    h = _hermitian(stream, n, 1.0)
    u = float(stream.uniforms_pos(1)[0])
    # the (1 + 1e-12) margin keeps the spectral norm strictly below 1 even
    # after rounding in the division
    return h * (u / (spectral_norm(h) * (1.0 + 1e-12)))


def _commuting_pair(stream: Stream, n: int, scale: float):
    u = _haar_unitary(stream, n)
    d1 = stream.gaussians(n) * scale
    d2 = stream.gaussians(n) * scale
    a = (u * d1[None, :]) @ adjoint(u)
    b = (u * d2[None, :]) @ adjoint(u)
    return (a + adjoint(a)) / 2, (b + adjoint(b)) / 2


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _anticommuting_pair(stream: Stream, n: int, scale: float):
    _check_dim("anticommuting_hermitian_pair", n)
    a, b = _commuting_pair(stream, n // 2, scale)
    return np.kron(_SIGMA_X, a), np.kron(_SIGMA_Z, b)


# each kind's draw from a stream, a dimension and a scale
_DRAWS = {
    "ginibre": _ginibre,
    "hermitian": _hermitian,
    "haar_unitary": lambda stream, n, scale: _haar_unitary(stream, n),
    "normal": _normal,
    "square_zero": _square_zero,
    "hermitian_contraction": lambda stream, n, scale: _hermitian_contraction(stream, n),
    "commuting_hermitian_pair": _commuting_pair,
    "anticommuting_hermitian_pair": _anticommuting_pair,
}


def generate(spec: EnsembleSpec):
    """Draw the matrix (or pair, for the *_pair kinds) described by `spec`.

    Draw order per kind (one stream, consumed sequentially):

    * ginibre: n^2 complex Gaussians, row major, times scale.
    * hermitian: a ginibre draw, symmetrized.
    * haar_unitary: a unit-scale ginibre draw, QR with phase correction
      (scale is ignored; the output stays exactly unitary-shaped).
    * normal: a Haar unitary, then n complex diagonal entries times scale.
    * square_zero: two n-vectors of complex Gaussians; the second is
      orthogonalized against the first; output scale * u v^*.
    * hermitian_contraction: a unit-scale hermitian draw, then one uniform
      in (0, 1]; output rescaled to spectral norm strictly below that
      uniform (scale is ignored).
    * commuting_hermitian_pair: a Haar unitary, then two real diagonals of
      n Gaussians each, times scale.
    * anticommuting_hermitian_pair: a commuting pair of dimension n/2,
      lifted through sigma_x (x) A and sigma_z (x) B.
    """
    return _DRAWS[spec.kind](Stream(spec.seed), spec.dim, spec.scale)


def generate_pair(spec: EnsembleSpec):
    """Two draws for pair-shaped consumers.

    Pair kinds return their natural pair; single-matrix kinds draw two
    matrices back-to-back from the one stream of `spec.seed`.
    """
    if spec.kind in PAIR_KINDS:
        return generate(spec)
    stream, draw = Stream(spec.seed), _DRAWS[spec.kind]
    return draw(stream, spec.dim, spec.scale), draw(stream, spec.dim, spec.scale)


def parse_ensemble_id(text: str) -> tuple[str, int]:
    """Parse a CLI ensemble id like 'ginibre:4' into (kind, dim), rejecting
    dimensions the kind cannot be drawn at."""
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in KIND_IDS:
        known = ", ".join(sorted(KIND_IDS))
        raise ValueError(f"ensemble id {text!r} not understood (known: {known})")
    try:
        dim = int(parts[1])
    except ValueError:
        raise ValueError(f"ensemble id {text!r}: dimension is not an integer") from None
    if dim < 1:
        raise ValueError(f"ensemble id {text!r}: dimension must be >= 1")
    kind = KIND_IDS[parts[0]]
    try:
        _check_dim(kind, dim)
    except ValueError as exc:
        raise ValueError(f"ensemble id {text!r}: {exc}") from None
    return kind, dim


def ensemble_id(kind: str, dim: int) -> str:
    short = {v: k for k, v in KIND_IDS.items()}[kind]
    return f"{short}:{dim}"


def random_unit_vectors(seed: int, count: int, dim: int) -> np.ndarray:
    """`count` unit vectors in C^dim from one stream (rows of the result)."""
    stream = Stream(seed)
    vecs = stream.cgaussians(count * dim).reshape(count, dim)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return vecs / norms
