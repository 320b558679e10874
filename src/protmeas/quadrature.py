"""Closed-form integrals of products of Hermite functions over intervals.

Interval projectors <m|P_V|n> and sketch bin probabilities <c|P_V|c> are
the same integral, int_V phi_m phi_n dx, and both are read off the Hermite
functions at the interval's edges.  phi_n'' = (x^2 - (2n+1)) phi_n, so the
Wronskian of phi_m and phi_n is an antiderivative of their product.  For
m != n

    int_a^b phi_m phi_n dx = [phi_m' phi_n - phi_m phi_n']_a^b / (2(n - m)),

with phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}.  The diagonal
follows from the ladder operators by the two-term recurrence

    D_{n+1} = D_n - [phi_n phi_{n+1}]_a^b / sqrt(2(n+1)),
    D_0 = (erf b - erf a) / 2.

Both need only phi_0..phi_dim at the finite edges (`_edge_terms`); an
infinite edge contributes nothing, since every phi_n vanishes there.  The
diagonal alone (`interval_diagonal`, the dwell probabilities <n|P_V|n>)
needs only phi_0..phi_{n} and no dim x dim array.
"""

from math import erf, isinf

import numpy as np

from .oscillator import hermite_functions


def _edge_terms(x, dim: int):
    """phi_n and phi_n' (n < dim) at the points x, one column per point.

    One Hermite recurrence to phi_dim serves both, through
    phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}.
    """
    phi = hermite_functions(np.asarray(x, dtype=float), dim + 1)
    n = np.arange(dim)[:, None]
    dphi = -np.sqrt((n + 1) / 2.0) * phi[1:]
    dphi[1:] += np.sqrt(n[1:] / 2.0) * phi[:dim - 1]
    return phi[:dim], dphi


def interval_overlaps(a: float, b: float, dim: int) -> np.ndarray:
    """The dim x dim matrix of int_a^b phi_m phi_n dx; a or b may be infinite."""
    phi, dphi = _edge_terms([x for x in (a, b) if not isinf(x)], dim)
    columns = zip(phi.T, dphi.T)

    def wronskian(x):
        """phi_m' phi_n - phi_m phi_n' at x."""
        # zeros where every phi_n vanishes; a scalar 0 gives the same bits, but
        # glibc then trimmed the heap more and dim-512 passes faulted 3x as often
        if isinf(x):
            return np.zeros((dim, dim))
        p, d = next(columns)
        return np.outer(d, p) - np.outer(p, d)

    wronskian_a, wronskian_b = wronskian(a), wronskian(b)
    n = np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (wronskian_b - wronskian_a) / (2.0 * (n[None, :] - n[:, None]))
    out[n, n] = _diagonal(a, b, phi)
    return out


def _diagonal(a, b, phi) -> np.ndarray:
    """D_0..D_{k-1} by the ladder recurrence, from phi_n (n < k) at the finite edges.

    phi has one column per finite edge among a, b, in that order; an
    infinite edge contributes no products phi_n phi_{n+1}.
    """
    columns = iter(phi.T)

    def products(x):
        if isinf(x):
            return np.zeros(len(phi) - 1)
        p = next(columns)
        return p[:-1] * p[1:]

    products_a = products(a)
    steps = (products(b) - products_a) / np.sqrt(2.0 * np.arange(1, len(phi)))
    return 0.5 * (erf(b) - erf(a)) - np.concatenate(([0.0], np.cumsum(steps)))


def interval_diagonal(a: float, b: float, count: int) -> np.ndarray:
    """int_a^b phi_n^2 dx = <n|P_[a,b]|n> for n < count; a or b may be infinite.

    The diagonal of `interval_overlaps(a, b, dim)` for any dim >= count, bit
    for bit, from a Hermite recurrence to phi_{count-1} at the finite edges
    alone: O(count) work and memory.
    """
    if not a < b:
        raise ValueError(f"interval requires a < b, got [{a}, {b}]")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _diagonal(a, b, hermite_functions(np.array([x for x in (a, b) if not isinf(x)]), count))


def bin_probabilities(amplitudes, edges) -> np.ndarray:
    """<c|P_V|c> for the bins V between consecutive finite edges, all at once.

    A bin is F(b) - F(a) with F(x) = <c|P_(-inf, x]|c> - |c|^2/2, which the
    formulas above give at every edge from w_n = |c_n|^2 as

        F(x) = sum_n w_n erf(x)/2 - sum_k phi_k phi_{k+1} sum_{n>k} w_n / sqrt(2(k+1))
               + 2 phi'^T M phi,    M_mn = Re(conj(c_m) c_n) / (2(n - m)), M_nn = 0.

    Without the |c|^2/2, bins of |0> are (erf b - erf a)/2 exactly.

    Rounding: a bin is the difference of two cumulative values and carries
    both of their absolute errors, however small the bin.  F(x) sums about
    2 dim terms whose magnitudes add up to

        S(x) = |erf x| |c|^2/2 + sum_k |phi_k phi_{k+1}| sum_{n>k} w_n / sqrt(2(k+1))
               + 2 |phi'|^T |M| |phi|,

    from phi_n that carry the rounding of n recurrence steps, so it is off
    by at most about dim u S(x), u = eps/2 (the worst case of a dim-term
    sum, Higham 2002, sec. 3.1).  A bin is then off by at most about
    dim u (S(a) + S(b)), and one where the state has almost no weight can
    come out negative by up to that much.  S stays below 3 for unit states
    up to |alpha| = 10, and measured errors stay far inside the bound:
    -5.0e-16 for |alpha = 4> and -7.0e-15 for |alpha = 10>.  Bins are not
    clipped, so they still add up to the whole interval's probability.
    """
    c = np.asarray(amplitudes)
    phi, dphi = _edge_terms(edges, c.size)
    n = np.arange(c.size)
    weights = np.abs(c) ** 2
    tails = np.cumsum(weights[::-1])[::-1][1:] / np.sqrt(2.0 * n[1:])
    diagonal = (np.array([erf(x) for x in edges]) / 2 * weights.sum()
                - tails @ (phi[:-1] * phi[1:]))
    with np.errstate(divide="ignore", invalid="ignore"):
        M = np.real(np.outer(np.conj(c), c)) / (2.0 * (n[None, :] - n[:, None]))
    M[n, n] = 0.0
    return np.diff(diagonal + 2.0 * np.sum(dphi * (M @ phi), axis=0))
