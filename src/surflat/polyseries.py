"""Truncated multivariate polynomials over stacked coefficient arrays.

Monomials of total degree at most cap are enumerated once per ring; a
polynomial batch is a (n_monomials, width) float array, one column per site
or pair. Multiplication fills one output row at a time from the precomputed
(i, j) pairs of that monomial, and exp of a constant-free polynomial
terminates after cap steps by nilpotency of the truncation ideal.

A ring may also drop every monomial of degree 2 or more in a chosen set of
variables taken together (linear). Those monomials form an ideal, so the
quotient is again a truncated ring and dropping them is exact: a product
lands on a kept monomial only when both factors are kept, so each kept
row's pairs are those of the uncut ring, in the same order, and mul and exp
give its kept rows bit for bit. This is truncated Taylor arithmetic
(Griewank and Walther, Evaluating Derivatives, 2nd ed., ch. 13) reading
only first derivatives in those variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def _monomials(n_vars: int, cap: int, linear: tuple):
    out = []
    for degree in range(cap + 1):
        for combo in itertools.combinations_with_replacement(
                range(n_vars), degree):
            exps = [0] * n_vars
            for v in combo:
                exps[v] += 1
            if sum(exps[v] for v in linear) <= 1:
                out.append(tuple(exps))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PolyRing:
    """Truncated polynomial ring, total degree <= cap.

    terms[k] lists, in table order, the pairs (i, j) with monomial i times
    monomial j equal to monomial k; the first is always (0, k). mul sums
    each output row's products one after another in that order, in place,
    with no temporary of the batch's full height.
    """

    cap: int
    monomials: tuple
    index: dict
    terms: tuple

    @classmethod
    def create(cls, n_vars: int, cap: int,
               linear: tuple = ()) -> "PolyRing":
        """The ring in n_vars variables, cut at total degree cap and at
        degree 1 in the variables listed in linear, taken together."""
        monomials = _monomials(n_vars, cap, linear)
        index = {m: i for i, m in enumerate(monomials)}
        terms = [[] for _ in monomials]
        for i, mi in enumerate(monomials):
            for j, mj in enumerate(monomials):
                k = index.get(tuple(a + b for a, b in zip(mi, mj)))
                if k is not None:
                    terms[k].append((i, j))
        return cls(cap, monomials, index, tuple(tuple(t) for t in terms))

    def zeros(self, width: int) -> np.ndarray:
        return np.zeros((len(self.monomials), width))

    def constant(self, value: float, width: int) -> np.ndarray:
        out = self.zeros(width)
        out[0] = value
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.monomials), a.shape[1]))
        scratch = np.empty(a.shape[1])
        for row, ((i, j), *rest) in zip(out, self.terms):
            np.multiply(a[i], b[j], out=row)
            # adding to 0.0 gives exact zeros the sign of a zeroed start
            row += 0.0
            for i, j in rest:
                row += np.multiply(a[i], b[j], out=scratch)
        return out

    def exp(self, a: np.ndarray) -> np.ndarray:
        if np.any(a[0] != 0.0):
            raise ValueError("exp needs a vanishing constant term")
        out = self.constant(1.0, a.shape[1])
        term = self.constant(1.0, a.shape[1])
        for n in range(1, self.cap + 1):
            term = self.mul(term, a)
            term /= n
            out += term
        return out
