"""Bigraded exterior algebra with a Berezin integral and Pfaffian.

Elements live in A^{i,j} = (i-forms) tensor (degree-j fiber multivectors)
over a fiber of rank n.  The product obeys

    (a (x) b) . (c (x) d) = (-1)^{|b| |c|} (a ^ c) (x) (b ^ d),

the Berezin integral extracts the signed coefficient of the top fiber
multivector, and skew matrices embed as fiber bivectors so that the
Pfaffian is B(exp(-Omega)).  Coefficients are complex scalars or complex
numpy arrays (one algebra element per batch point).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = [
    "AlgebraError",
    "BigradedElement",
    "SkewMatrixValuedForm",
    "bigraded_product",
    "berezin",
    "pfaffian",
    "exp_truncated",
    "sort_with_parity",
    "merge_sign",
    "pfaffian_norm_constant",
]

Index = tuple[int, ...]


class AlgebraError(ValueError):
    """Structural misuse of the bigraded algebra (rank/degree mismatch)."""


def sort_with_parity(idx) -> tuple[Index, int]:
    """Sort a multi-index, returning (sorted tuple, permutation sign).

    A repeated index gives sign 0.  Parity is counted by insertion sort,
    so the sign is exact integer arithmetic.
    """
    seq = list(idx)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return tuple(seq), 0
    return tuple(seq), sign


@cache
def merge_sign(left: Index, right: Index) -> tuple[Index, int]:
    """Wedge two strictly increasing multi-indices: (merged, sign or 0)."""
    if set(left) & set(right):
        return (), 0
    # inversions between the two sorted blocks
    inv = sum(1 for a in left for b in right if a > b)
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inv


class BigradedElement:
    """Sparse element of the bigraded algebra.

    terms maps (form multi-index I, fiber multi-index J) -> coefficient,
    both indices strictly increasing, 0-based.
    """

    # numpy defers to __rmul__: an array of per-point scalars scales each coefficient
    __array_ufunc__ = None

    def __init__(self, n: int, form_dim: int,
                 terms: dict[tuple[Index, Index], complex] | None = None):
        self.n = n
        self.form_dim = form_dim
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls, n: int, form_dim: int) -> "BigradedElement":
        return cls(n, form_dim, {})

    @classmethod
    def unit(cls, n: int, form_dim: int) -> "BigradedElement":
        return cls(n, form_dim, {((), ()): 1.0 + 0.0j})

    def add_term(self, I, J, coeff) -> None:
        I_s, s1 = sort_with_parity(I)
        J_s, s2 = sort_with_parity(J)
        if s1 == 0 or s2 == 0:
            return
        if I_s and I_s[-1] >= self.form_dim:
            raise AlgebraError(f"form index {I_s} exceeds form_dim={self.form_dim}")
        if J_s and J_s[-1] >= self.n:
            raise AlgebraError(f"fiber index {J_s} exceeds rank n={self.n}")
        key = (I_s, J_s)
        self.terms[key] = self.terms.get(key, 0.0) + (s1 * s2) * coeff

    def _check_compatible(self, other: "BigradedElement") -> None:
        if self.n != other.n:
            raise AlgebraError(f"fiber rank mismatch: {self.n} vs {other.n}")
        if self.form_dim != other.form_dim:
            raise AlgebraError(
                f"form dimension mismatch: {self.form_dim} vs {other.form_dim}"
            )

    def __add__(self, other):
        if not isinstance(other, BigradedElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return BigradedElement(self.n, self.form_dim, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        if isinstance(scalar, BigradedElement):
            return NotImplemented
        return BigradedElement(
            self.n, self.form_dim, {k: scalar * c for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, BigradedElement):
            return bigraded_product(self, other)
        return self.__rmul__(other)

    def component(self, i: int, j: int) -> "BigradedElement":
        """Projection onto the (i, j) bidegree."""
        return BigradedElement(
            self.n,
            self.form_dim,
            {k: c for k, c in self.terms.items() if len(k[0]) == i and len(k[1]) == j},
        )

    def max_abs(self) -> float:
        return float(np.max([np.max(np.abs(c)) for c in self.terms.values()], initial=0.0))


def bigraded_product(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Product with the sign rule (-1)^{(fiber deg a) * (form deg b)}."""
    a._check_compatible(b)
    out: dict[tuple[Index, Index], complex] = {}
    for (I1, J1), c1 in a.terms.items():
        for (I2, J2), c2 in b.terms.items():
            I, s_i = merge_sign(I1, I2)
            if s_i == 0:
                continue
            J, s_j = merge_sign(J1, J2)
            if s_j == 0:
                continue
            sign = s_i * s_j * ((-1) ** (len(J1) * len(I2)))
            key = (I, J)
            prev = out.get(key)
            contrib = sign * (c1 * c2)
            out[key] = contrib if prev is None else prev + contrib
    return BigradedElement(a.n, a.form_dim, out)


def berezin(a: BigradedElement) -> dict[Index, complex]:
    """Berezin integral: the coefficient table of e_1 ^ ... ^ e_n.

    Returns a map from form multi-index to coefficient; every term of
    fiber degree below n integrates to zero.  Internal storage keeps fiber
    indices sorted, so the top multivector carries sign +1 here.
    """
    top = tuple(range(a.n))
    return {I: c for (I, J), c in a.terms.items() if J == top}


def exp_truncated(a: BigradedElement) -> BigradedElement:
    """exp(a) = sum a^k / k!, truncated where powers vanish by degree.

    A scalar (0,0)-part s is factored out exactly as exp(s); the rest is
    nilpotent since every term raises form or fiber degree, so the series
    terminates at k <= form_dim + n.
    """
    scalar = a.terms.get(((), ()), 0.0)
    nil = BigradedElement(
        a.n, a.form_dim, {k: c for k, c in a.terms.items() if k != ((), ())}
    )
    k_max = a.form_dim + a.n
    out = BigradedElement.unit(a.n, a.form_dim)
    power = BigradedElement.unit(a.n, a.form_dim)
    fact = 1.0
    for k in range(1, k_max + 1):
        power = bigraded_product(power, nil)
        if not power.terms:
            break
        fact *= k
        out = out + (1.0 / fact) * power
    if isinstance(scalar, np.ndarray) or scalar != 0.0:
        out = np.exp(scalar) * out
    return out


class SkewMatrixValuedForm:
    """A matrix of form coefficients, skew in the matrix indices.

    entries[i][j] is the coefficient table {form multi-index: value} of the
    (i, j) entry; used to feed curvature matrices into the algebra.
    """

    def __init__(self, n: int, form_dim: int, entries: list):
        self.n = n
        self.form_dim = form_dim
        self.entries = entries  # entries[i][j]: dict[Index, complex]

    def validate(self) -> None:
        for i in range(self.n):
            for j in range(self.n):
                keys = set(self.entries[i][j]) | set(self.entries[j][i])
                for K in keys:
                    s = self.entries[i][j].get(K, 0.0) + self.entries[j][i].get(K, 0.0)
                    if float(np.max(np.abs(s))) > 1e-12:
                        raise AlgebraError(
                            f"matrix-valued form not skew at entry ({i},{j})"
                        )

    def as_bivector(self) -> BigradedElement:
        """Embed into A^{*,2} as (1/2) sum_{i,j} entry_ij (x) e_i ^ e_j."""
        out = BigradedElement.zero(self.n, self.form_dim)
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                for I, c in self.entries[i][j].items():
                    out.add_term(I, (i, j), 0.5 * c)
        return out


def pfaffian(omega: SkewMatrixValuedForm) -> dict[Index, complex]:
    """Pf(-Omega) realised operationally as B(exp(-Omega_bivector)).

    The sign convention is pinned by the n=2 hand expansion: for the
    scalar skew matrix [[0, a], [-a, 0]] the bivector is a e1^e2, so
    B(exp(-Omega)) = -a.  Odd rank returns an empty (zero) table.
    """
    omega.validate()
    if omega.n % 2 == 1:
        return {}
    biv = omega.as_bivector()
    return berezin(exp_truncated((-1.0) * biv))


def pfaffian_norm_constant(n: int) -> float:
    """Euler-form normalisation 1 / (2 pi)^{n/2}."""
    return 1.0 / (2.0 * math.pi) ** (n / 2.0)
