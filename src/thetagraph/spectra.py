"""Signless Laplacian spectra: Q = D + A, LAPACK's symmetric eigensolver
(``eigvalsh`` via numpy), exact closed-form spectra for the cyclic and
dihedral families, and equitable partition quotients.

The closed forms are kept exact as quadratic surds; rounding enters only at
the single comparison boundary against the numeric solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import ThetaGraph
from .numtheory import euler_phi, factorize, squarefree_split

__all__ = [
    "EquitablePartition",
    "SpectrumResult",
    "Surd",
    "UnsupportedFamilyError",
    "build_Q",
    "closed_form_spectrum",
    "eig_sym",
    "is_equitable",
    "quotient_matrix",
    "quotient_spectrum",
    "spectra_equal",
    "spectrum_contains",
]

SPECTRUM_MATCH_TOL = 1e-7  # absolute: how far two spectra may differ and still match
MULTIPLICITY_GROUP_TOL = 1e-7  # relative to the matrix norm: equal eigenvalues in one result


class UnsupportedFamilyError(ValueError):
    """No closed-form theorem covers the requested family/order shape."""


# ---------------------------------------------------------------------------
# exact quadratic numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=False)
class Surd:
    """Exact value a + b*sqrt(r) with rational a, b and squarefree r >= 2.

    Rational values are canonicalized to b = 0, r = 1, so structural
    equality coincides with numerical equality.
    """

    a: Fraction
    b: Fraction
    r: int

    @staticmethod
    def of(a, b=0, r=1) -> "Surd":
        a, b = Fraction(a), Fraction(b)
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or r == 0:
            return Surd(a, Fraction(0), 1)
        s, rad = squarefree_split(r)
        if rad == 1:
            return Surd(a + b * s, Fraction(0), 1)
        return Surd(a, b * s, rad)

    @staticmethod
    def quadratic_pair(trace: int, det: int) -> tuple["Surd", "Surd"]:
        """The two real roots of x^2 - trace*x + det = 0, exactly."""
        disc = trace * trace - 4 * det
        if disc < 0:
            raise ValueError("complex roots: discriminant < 0")
        hi = Surd.of(Fraction(trace, 2), Fraction(1, 2), disc)
        lo = Surd.of(Fraction(trace, 2), Fraction(-1, 2), disc)
        return hi, lo

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.r)

    def display(self) -> str:
        if self.b == 0:
            return _frac_str(self.a)
        den = math.lcm(self.a.denominator, self.b.denominator)
        num = self.a * den
        coef = self.b * den
        core = f"{num.numerator:+d}" if num != 0 else ""
        if coef == 1:
            radical = f"+sqrt({self.r})"
        elif coef == -1:
            radical = f"-sqrt({self.r})"
        else:
            radical = f"{coef.numerator:+d}*sqrt({self.r})"
        body = (core + radical).lstrip("+")
        if den == 1:
            return body
        return f"({body})/{den}"


def _frac_str(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues with multiplicities, sorted descending by value."""

    entries: tuple[tuple[object, int], ...]  # (Surd | float, multiplicity)
    kind: str  # closed_form | numeric

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.entries)

    def numeric_items(self) -> list[tuple[float, int]]:
        return [(float(v), m) for v, m in self.entries]

    def trace(self) -> float:
        return sum(float(v) * m for v, m in self.entries)

    def display_items(self) -> list[tuple[str, float, int]]:
        out = []
        for v, m in self.entries:
            if isinstance(v, Surd):
                out.append((v.display(), float(v), m))
            else:
                out.append((repr(float(v)), float(v), m))
        return out


def _make_spectrum(pairs, kind: str) -> SpectrumResult:
    merged: dict[object, int] = {}
    for v, m in pairs:
        if m < 0:
            raise ValueError("negative multiplicity")
        if m == 0:
            continue
        merged[v] = merged.get(v, 0) + m
    entries = tuple(sorted(merged.items(), key=lambda vm: -float(vm[0])))
    return SpectrumResult(entries=entries, kind=kind)


def build_Q(t: ThetaGraph) -> np.ndarray:
    """Signless Laplacian Q = D + A as an exact integer matrix."""
    return np.diag(t.degrees) + t.adj.astype(np.int64)


def eig_sym(m: np.ndarray) -> SpectrumResult:
    """Eigenvalues of a symmetric matrix by LAPACK's ``eigvalsh`` (via numpy).

    Close eigenvalues are grouped into multiplicities within
    1e-7 * max(1, ||m||).
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eig_sym requires a square matrix")
    if not np.array_equal(m, m.T):
        raise ValueError("eig_sym requires a symmetric matrix")
    norm = float(np.linalg.norm(m))
    values = np.linalg.eigvalsh(m.astype(np.float64)).tolist()
    group_tol = MULTIPLICITY_GROUP_TOL * max(1.0, norm)
    groups: list[list[float]] = []
    for v in sorted(values, reverse=True):
        if groups and abs(groups[-1][-1] - v) <= group_tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    pairs = [(math.fsum(g) / len(g), len(g)) for g in groups]
    return _make_spectrum(pairs, "numeric")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _order_shape(n: int) -> tuple[str, tuple[int, ...]]:
    if n < 2:
        raise UnsupportedFamilyError(
            f"n={n} has no closed-form spectrum; supported shapes: prime p, "
            "prime power p^m (m>=2), product of two distinct primes pq"
        )
    f = factorize(n)
    if len(f) == 1:
        p, e = f.factors[0]
        return ("prime", (p,)) if e == 1 else ("prime_power", (p, e))
    if len(f) == 2 and all(e == 1 for _, e in f):
        (p, _), (q, _) = f.factors
        return "semiprime", (p, q)
    raise UnsupportedFamilyError(
        f"n={n} has no closed-form spectrum; supported shapes: prime p, "
        "prime power p^m (m>=2), product of two distinct primes pq"
    )


def closed_form_spectrum(family: str, n: int) -> SpectrumResult:
    """Exact spectrum of Q for the cyclic or dihedral group parameterized
    by n, for n prime, a prime power, or a product of two distinct primes.

    Coincident values (possible after parameter substitution) are merged
    exactly before the result is built.
    """
    if family not in ("cyclic", "dihedral"):
        raise UnsupportedFamilyError(f"no closed-form spectrum for family {family!r}")
    shape, params = _order_shape(n)
    pairs: list[tuple[Surd, int]]
    if family == "cyclic":
        if shape == "prime":
            pairs = [(Surd.of(2 * (n - 1)), 1), (Surd.of(n - 2), n - 1)]
        elif shape == "semiprime":
            p, q = params
            hi, lo = Surd.quadratic_pair(
                p * q + 2 * p + 2 * q - 4, 2 * (p + q - 1) * (p + q - 2)
            )
            pairs = [
                (Surd.of(p + q - 1), p * q - p - q),
                (Surd.of(p * q - 2), p + q - 2),
                (hi, 1),
                (lo, 1),
            ]
        else:
            p, _ = params
            hi, lo = Surd.quadratic_pair(n + 2 * p - 2, 2 * p * (p - 1))
            pairs = [
                (Surd.of(p), n - p - 1),
                (Surd.of(n - 2), p - 1),
                (hi, 1),
                (lo, 1),
            ]
    else:
        if shape == "prime":
            # complete graph on the 2n group elements
            pairs = [(Surd.of(2 * (2 * n - 1)), 1), (Surd.of(2 * n - 2), 2 * n - 1)]
        elif shape == "semiprime":
            phi = euler_phi(n)
            b = 3 * n - phi - 1
            disc_half = n * n + 2 * phi * n - phi * phi - 2 * n + 1
            hi, lo = Surd.quadratic_pair(2 * b, b * b - disc_half)
            pairs = [
                (Surd.of(2 * (n - 1)), 2 * n - phi - 1),
                (Surd.of(2 * n - phi), phi - 1),
                (hi, 1),
                (lo, 1),
            ]
        else:
            p, _ = params
            b = 2 * n + p - 1
            disc_half = 2 * n * n - 2 * n - p * p + 1
            hi, lo = Surd.quadratic_pair(2 * b, b * b - disc_half)
            pairs = [
                (Surd.of(2 * n - 2), n + p - 1),
                (Surd.of(p + n), n - p - 1),
                (hi, 1),
                (lo, 1),
            ]
    return _make_spectrum(pairs, "closed_form")


# ---------------------------------------------------------------------------
# equitable partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquitablePartition:
    blocks: tuple[tuple[int, ...], ...]
    counts: np.ndarray  # b[i][j]: neighbors a vertex of block i has in block j
    quotient: np.ndarray  # q[i][j] = b[i][j] (i != j); q[i][i] = b[i][i] + row sum


def _check_partition(t: ThetaGraph, blocks) -> list[list[int]]:
    blocks = [sorted(int(v) for v in blk) for blk in blocks]
    flat = [v for blk in blocks for v in blk]
    if sorted(flat) != list(range(t.n_vertices)):
        raise ValueError("blocks do not partition the vertex set")
    if any(not blk for blk in blocks):
        raise ValueError("empty block in partition")
    return blocks


def _block_counts(t: ThetaGraph, blocks) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Neighbour counts into each block, from one n x k count matrix.

    Returns the k x k counts read off each block's first vertex, and the
    first pair of same-block vertices whose counts differ (block by block,
    then target block by target block, then vertex by vertex), or None when
    the partition is equitable."""
    indicator = np.zeros((t.n_vertices, len(blocks)), dtype=np.int64)
    for j, blk in enumerate(blocks):
        indicator[blk, j] = 1
    per_vertex = t.adj.astype(np.int64) @ indicator
    counts = per_vertex[[blk[0] for blk in blocks]]
    for blk in blocks:
        rows = per_vertex[blk]
        _, v = np.nonzero((rows[1:] != rows[0]).T)
        if v.size:
            return counts, (blk[0], blk[int(v[0]) + 1])
    return counts, None


def is_equitable(t: ThetaGraph, blocks) -> tuple[bool, tuple[int, int] | None]:
    """True when neighbor counts into every block are constant within each
    block; otherwise a witness pair of same-block vertices that differ."""
    _, witness = _block_counts(t, _check_partition(t, blocks))
    return witness is None, witness


def quotient_matrix(t: ThetaGraph, blocks) -> EquitablePartition:
    """The signless Laplacian quotient of an equitable partition.

    Off-diagonal entries are the neighbor counts b_ij; the diagonal adds the
    vertex degree on top of b_ii, matching the quotient of D + A.
    """
    blocks = _check_partition(t, blocks)
    counts, witness = _block_counts(t, blocks)
    if witness is not None:
        raise ValueError(
            f"partition is not equitable: vertices {witness[0]} and {witness[1]} "
            "in one block have different neighbor counts"
        )
    return EquitablePartition(
        blocks=tuple(tuple(blk) for blk in blocks),
        counts=counts,
        quotient=counts + np.diag(counts.sum(axis=1)),
    )


def quotient_spectrum(ep: EquitablePartition) -> SpectrumResult:
    """Eigenvalues of the quotient matrix.

    The quotient is similar to a symmetric matrix under scaling by the
    square roots of the block sizes (s_i * b_ij = s_j * b_ji for equitable
    partitions), so the symmetric eigensolver ``eig_sym`` applies.
    """
    sizes = [len(blk) for blk in ep.blocks]
    k = len(sizes)
    b = ep.counts
    for i in range(k):
        for j in range(k):
            if sizes[i] * b[i, j] != sizes[j] * b[j, i]:
                raise ValueError("neighbor counts violate the edge-count identity")
    m = np.zeros((k, k))
    for i in range(k):
        m[i, i] = float(ep.quotient[i, i])
        for j in range(i + 1, k):
            v = math.sqrt(float(b[i, j] * b[j, i]))
            m[i, j] = m[j, i] = v
    return eig_sym(m)


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------


def spectrum_contains(sub: SpectrumResult, full: SpectrumResult, tol: float) -> bool:
    """Multiset containment: every eigenvalue of sub is matched, with
    multiplicity, by eigenvalues of full within tol."""
    remaining = [[v, m] for v, m in full.numeric_items()]
    for value, mult in sub.numeric_items():
        need = mult
        candidates = sorted(
            (entry for entry in remaining if abs(entry[0] - value) <= tol),
            key=lambda entry: abs(entry[0] - value),
        )
        for entry in candidates:
            take = min(need, entry[1])
            entry[1] -= take
            need -= take
            if need == 0:
                break
        if need:
            return False
    return True


def spectra_equal(a: SpectrumResult, b: SpectrumResult, tol: float) -> bool:
    """Same dimension and matching eigenvalue multisets within tol."""
    if a.dimension != b.dimension:
        return False
    return spectrum_contains(a, b, tol) and spectrum_contains(b, a, tol)
