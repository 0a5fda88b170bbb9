"""Signless Laplacian spectra: Q = D + A, LAPACK's symmetric eigensolver
(``eigvalsh`` via numpy), the numeric spectrum of a group's graph from its
order classes, exact closed-form spectra for the cyclic and dihedral
families, and equitable partition quotients.

Equal-order elements are twins, so ``order_class_spectrum`` reads Spec(Q)
off the k x k order-class quotient and one twin eigenvalue per class; the
dense n x n Q and ``eig_sym`` stay as its oracle in ``verify`` and the tests.

The closed forms are one formula, the spectrum of a complete split graph
(a clique of universal vertices joined to an independent set). The graphs
of Z_n and D_n are complete split graphs exactly when n is a prime p, a
prime power p^m or a product pq of two distinct primes.

The closed forms are kept exact as quadratic surds; rounding enters only at
the single comparison boundary against the numeric solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import ThetaGraph
from .numtheory import factorize, squarefree_split

__all__ = [
    "SpectrumResult",
    "Surd",
    "UnsupportedFamilyError",
    "build_Q",
    "closed_form_spectrum",
    "eig_sym",
    "order_class_spectrum",
    "quotient_matrix",
    "quotient_spectrum",
    "spectra_equal",
    "spectrum_contains",
]

SPECTRUM_MATCH_TOL = 1e-7  # absolute: how far two spectra may differ and still match
# relative to max(1, ||m||_inf), the largest absolute row sum (2 * max degree
# for Q), which bounds the spectral norm: eigenvalues this close are one value
MULTIPLICITY_GROUP_TOL = 1e-9


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
    """Signless Laplacian Q = D + A, built once as float64 for the eigensolver.

    Every entry is an integer below 2^53, so the matrix is exact."""
    q = t.adj.astype(np.float64)
    np.fill_diagonal(q, t.degrees)
    return q


def _numeric_spectrum(pairs, scale: float) -> SpectrumResult:
    """Group (value, multiplicity) pairs into one numeric spectrum.

    In descending order, a value joins the group of the value before it when
    the two lie within ``MULTIPLICITY_GROUP_TOL * max(1, scale)``; a group
    reports the multiplicity-weighted mean of its values and their total
    multiplicity. ``scale`` bounds the spectral norm of the matrix.
    """
    group_tol = MULTIPLICITY_GROUP_TOL * max(1.0, scale)
    groups: list[list[tuple[float, int]]] = []
    for v, m in sorted(pairs, reverse=True):
        if groups and abs(groups[-1][-1][0] - v) <= group_tol:
            groups[-1].append((v, m))
        else:
            groups.append([(v, m)])
    merged = []
    for g in groups:
        total = sum(m for _, m in g)
        merged.append((math.fsum(v * m for v, m in g) / total, total))
    return _make_spectrum(merged, "numeric")


def eig_sym(m: np.ndarray) -> SpectrumResult:
    """Eigenvalues of a symmetric matrix by LAPACK's ``eigvalsh`` (via numpy).

    Close eigenvalues are grouped into multiplicities within
    1e-9 * max(1, ||m||_inf); the largest absolute row sum bounds the
    spectral norm, so the window stays near rounding error at any size.
    This dense path is the oracle for ``order_class_spectrum``.
    """
    m = np.asarray(m, dtype=np.float64)  # no copy when m is float64 already
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eig_sym requires a square matrix")
    if not np.array_equal(m, m.T):
        raise ValueError("eig_sym requires a symmetric matrix")
    scale = float(np.abs(m).sum(axis=1).max(initial=0.0))
    values = np.linalg.eigvalsh(m).tolist()
    return _numeric_spectrum([(v, 1) for v in values], scale)


def order_class_spectrum(t: ThetaGraph) -> SpectrumResult:
    """The numeric spectrum of Q read off the twin quotient of ``t``, which
    for a group's graph is its order classes.

    For u, v in one class of degree d, Q(e_u - e_v) = (d - [u ~ v])(e_u - e_v),
    and u ~ v exactly when the class is a clique. So Spec(Q) is the spectrum
    of the k x k class quotient q_ij = |C_j| [i ~ j] - [i = j and C_i is a
    clique], plus its row sum d_i on the diagonal, and, for each class,
    d_i - [C_i is a clique] with multiplicity |C_i| - 1. The quotient is
    symmetrised as in ``quotient_spectrum``, and values are grouped by the
    rule of ``eig_sym`` with the same scale, 2 * max degree.
    """
    q = t.quotient
    twin = q.degrees - q.adjacent.diagonal()  # d_i - [C_i is a clique]
    counts = q.adjacent * q.sizes + np.diag(twin)
    values = np.linalg.eigvalsh(np.sqrt(counts * counts.T)).tolist()
    twins = [(d, c - 1) for d, c in zip(twin.tolist(), q.sizes.tolist()) if c > 1]
    return _numeric_spectrum([(v, 1) for v in values] + twins, 2 * float(q.degrees.max()))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_form_spectrum(family: str, n: int) -> SpectrumResult:
    """Exact spectrum of Q for the cyclic or dihedral group parameterized
    by n, for n prime, a prime power, or a product of two distinct primes.

    For exactly these n the graph is a complete split graph: the s elements
    of order 1 or a prime (1 + sum of p - 1 over the primes p | n, plus the
    n reflections of D_n) are universal, and the t others are pairwise
    non-adjacent. On N = s + t vertices its spectrum is N - 2 (true twins)
    s - 1 times, s (false twins) t - 1 times, and the two roots of the 2 x 2
    quotient, x^2 - (N + 2s - 2)x + 2s(s - 1); with t = 0 it is K_N.
    Coincident values are merged exactly before the result is built.
    """
    if family not in ("cyclic", "dihedral"):
        raise UnsupportedFamilyError(f"no closed-form spectrum for family {family!r}")
    f = factorize(n) if n >= 2 else ()
    if not (len(f) == 1 or (len(f) == 2 and all(e == 1 for _, e in f))):
        raise UnsupportedFamilyError(
            f"n={n} has no closed-form spectrum; supported shapes: prime p, "
            "prime power p^m (m>=2), product of two distinct primes pq"
        )
    size, s = n, 1 + sum(p - 1 for p, _ in f)
    if family == "dihedral":
        size, s = 2 * n, s + n
    t = size - s
    if t == 0:
        pairs = [(Surd.of(2 * (size - 1)), 1), (Surd.of(size - 2), size - 1)]
    else:
        hi, lo = Surd.quadratic_pair(size + 2 * s - 2, 2 * s * (s - 1))
        pairs = [(Surd.of(size - 2), s - 1), (Surd.of(s), t - 1), (hi, 1), (lo, 1)]
    return _make_spectrum(pairs, "closed_form")


# ---------------------------------------------------------------------------
# equitable partitions
# ---------------------------------------------------------------------------


def quotient_matrix(t: ThetaGraph, blocks) -> np.ndarray:
    """The k x k int64 signless Laplacian quotient of an equitable partition.

    Entry (i, j) counts the neighbours a vertex of block i has in block j,
    and the diagonal adds the vertex degree, matching the quotient of D + A.
    Raises ValueError when the blocks do not partition the vertex set (an
    empty block included), or when the partition is not equitable: the
    message then names the first vertex, in index order, whose counts differ
    from those of the first vertex of its block, and that first vertex.
    """
    blocks = [np.asarray(blk, dtype=np.int64) for blk in blocks]
    sizes = [blk.size for blk in blocks]
    flat = np.concatenate([np.empty(0, dtype=np.int64), *blocks])
    if 0 in sizes or not np.array_equal(np.sort(flat), np.arange(t.n_vertices)):
        raise ValueError("blocks do not partition the vertex set")
    block_of = np.empty(t.n_vertices, dtype=np.int64)
    block_of[flat] = np.repeat(np.arange(len(blocks)), sizes)
    per_vertex = t.adj.astype(np.int64) @ np.eye(len(blocks), dtype=np.int64)[block_of]
    first = np.array([blk.min() for blk in blocks])
    lead = first[block_of]
    differ = np.flatnonzero((per_vertex != per_vertex[lead]).any(axis=1))
    if differ.size:
        v = int(differ[0])
        raise ValueError(
            f"partition is not equitable: vertex {v} has other neighbor counts "
            f"than vertex {lead[v]}, the first of its block"
        )
    return per_vertex[first] + np.diag(t.degrees[first])


def quotient_spectrum(t: ThetaGraph, blocks) -> SpectrumResult:
    """Eigenvalues of ``quotient_matrix(t, blocks)``.

    With block sizes s_i, an equitable partition has s_i * q_ij = s_j * q_ji,
    so scaling by the square roots of the sizes makes the quotient the
    symmetric matrix sqrt(q_ij * q_ji), and ``eig_sym`` applies.
    """
    q = quotient_matrix(t, blocks)
    return eig_sym(np.sqrt(q * q.T))


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------


def spectrum_contains(sub: SpectrumResult, full: SpectrumResult, tol: float) -> bool:
    """Multiset containment: every eigenvalue of sub is matched, with
    multiplicity, by an eigenvalue of full within tol.

    In ascending order, each value of sub takes the smallest unmatched value
    of full that is at least value - tol. All windows have the same width,
    so this greedy matching finds one whenever one exists."""
    values = sorted(v for v, m in sub.numeric_items() for _ in range(m))
    pool = sorted(v for v, m in full.numeric_items() for _ in range(m))
    j = 0
    for value in values:
        while j < len(pool) and value - pool[j] > tol:
            j += 1
        if j == len(pool) or pool[j] - value > tol:
            return False
        j += 1
    return True


def spectra_equal(a: SpectrumResult, b: SpectrumResult, tol: float) -> bool:
    """Same dimension and matching eigenvalue multisets within tol."""
    return a.dimension == b.dimension and spectrum_contains(a, b, tol)
