"""Truncated multivariate polynomials over stacked coefficient arrays.

Monomials of total degree at most cap are enumerated once per ring; a
polynomial batch is a (n_monomials, width) float array, one column per site
or pair. Multiplication sums products over precomputed index triples,
round by round, and exp of a constant-free polynomial terminates after cap
steps by nilpotency of the truncation ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def _monomials(n_vars: int, cap: int):
    out = []
    for degree in range(cap + 1):
        for combo in itertools.combinations_with_replacement(
                range(n_vars), degree):
            exps = [0] * n_vars
            for v in combo:
                exps[v] += 1
            out.append(tuple(exps))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PolyRing:
    """Truncated polynomial ring in n_vars variables, total degree <= cap.

    The product table is split into rounds: round r holds, as index arrays
    (i, j, k), the r-th triple with monomial i times monomial j equal to
    monomial k, for every k that has one. mul adds the rounds in order, so
    each output coefficient sums its products one after another in table
    order, as a scatter-add over the table would.
    """

    n_vars: int
    cap: int
    monomials: tuple
    index: dict
    rounds: tuple

    @classmethod
    def create(cls, n_vars: int, cap: int) -> "PolyRing":
        monomials = _monomials(n_vars, cap)
        index = {m: i for i, m in enumerate(monomials)}
        by_output = [[] for _ in monomials]
        for i, mi in enumerate(monomials):
            for j, mj in enumerate(monomials):
                if sum(mi) + sum(mj) > cap:
                    continue
                mk = tuple(a + b for a, b in zip(mi, mj))
                by_output[index[mk]].append((i, j, index[mk]))
        rounds = []
        for r in range(max(len(t) for t in by_output)):
            triples = np.array([t[r] for t in by_output if len(t) > r],
                               dtype=np.intp)
            rounds.append(tuple(triples.T))
        return cls(n_vars, cap, monomials, index, tuple(rounds))

    def zeros(self, width: int) -> np.ndarray:
        return np.zeros((len(self.monomials), width))

    def constant(self, value: float, width: int) -> np.ndarray:
        out = self.zeros(width)
        out[0] = value
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # every monomial k is k times 1, so the first round covers all k in
        # order; adding to 0.0 gives exact zeros the sign of a zeroed start
        i, j, _ = self.rounds[0]
        out = 0.0 + a[i] * b[j]
        for i, j, k in self.rounds[1:]:
            out[k] += a[i] * b[j]
        return out

    def exp(self, a: np.ndarray) -> np.ndarray:
        if np.any(a[0] != 0.0):
            raise ValueError("exp needs a vanishing constant term")
        out = self.constant(1.0, a.shape[1])
        term = self.constant(1.0, a.shape[1])
        for n in range(1, self.cap + 1):
            term = self.mul(term, a) / n
            out = out + term
        return out
