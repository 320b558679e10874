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

An interval has one or two finite edges, for which `hermite_functions`
runs its recurrence on Python floats; the many edges of a sketch take its
vector path.  With the edge terms in hand a dim-512 projector costs little
arithmetic, and whole-matrix temporaries (outer products, their
difference, an n - m matrix) used to cost more in fresh pages than the
arithmetic did.  So `interval_overlaps` writes its result one row block
at a time, and a build allocates its output and two blocks of scratch.
"""

from math import erf, isinf

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oscillator import _row_blocks, _significant, check_count, hermite_functions


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
    """The dim x dim matrix of int_a^b phi_m phi_n dx; a or b may be infinite.

    The result is allocated once and written one row block of about
    256 KB at a time (`_row_blocks`): the Wronskian difference, then its
    quotient by 2(n - m), which row m reads off a window of one vector of
    2 dim - 1 floats.  Scratch memory is two blocks, O(block x dim), and
    no dim x dim temporary is paged in.  Each entry keeps the operations
    of W_b - W_a with W = 0 at an infinite edge, and so its bits and signed
    zeros: W_b where a = -inf, 0 - W_a where b = inf, 0 - 0 on the whole line.
    Raises ValueError naming dim unless it is an integer >= 1.
    """
    check_count(dim, "dim", 1)
    phi, dphi = _edge_terms([x for x in (a, b) if not isinf(x)], dim)
    p, d = phi.T.copy(), dphi.T.copy()          # one row per finite edge
    out = np.empty((dim, dim))
    blocks = _row_blocks(out)
    tmp, wronskian_a = np.empty_like(out[blocks[0]]), np.empty_like(out[blocks[0]])
    denominators = sliding_window_view(2.0 * np.arange(1 - dim, dim), dim)[::-1]

    def wronskian(edge, rows, into):
        """phi_m' phi_n - phi_m phi_n' at the finite edge `edge`, for the m of `rows`."""
        np.multiply(d[edge, rows, None], p[edge], out=into)
        np.subtract(into, np.multiply(p[edge, rows, None], d[edge], out=tmp[:len(into)]),
                    out=into)

    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in blocks:
            block = out[rows]
            if isinf(b):
                block[...] = 0.0
            else:
                wronskian(-1, rows, block)
            if not isinf(a):
                wronskian(0, rows, wronskian_a[:len(block)])
                block -= wronskian_a[:len(block)]
            np.divide(block, denominators[rows], out=block)
    n = np.arange(dim)
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
    check_count(count, "count", 1)
    return _diagonal(a, b, hermite_functions(np.array([x for x in (a, b) if not isinf(x)]), count))


def bin_probabilities(amplitudes, edges) -> np.ndarray:
    """<c|P_V|c> for the bins V between consecutive finite edges, all at once.

    A bin is F(b) - F(a) with F(x) = <c|P_(-inf, x]|c> - |c|^2/2, which the
    formulas above give at every edge from w_n = |c_n|^2 as

        F(x) = sum_n w_n erf(x)/2 - sum_k phi_k phi_{k+1} sum_{n>k} w_n / sqrt(2(k+1))
               + 2 phi'^T M phi,    M_mn = Re(conj(c_m) c_n) / (2(n - m)), M_nn = 0.

    Without the |c|^2/2, bins of |0> are (erf b - erf a)/2 exactly.

    Only the K amplitudes that `_significant` keeps are folded, so the
    Hermite recurrence runs to phi_K and M is K x K: |0> folds one term at
    any dim.  The cut trailing run weighs at most u ||c||_1, u = eps/2, and
    every term it drops carries one of its amplitudes.

    Rounding: a bin is the difference of two cumulative values and carries
    both of their absolute errors, however small the bin.  F(x) sums about
    2 K terms whose magnitudes add up to

        S(x) = |erf x| |c|^2/2 + sum_k |phi_k phi_{k+1}| sum_{n>k} w_n / sqrt(2(k+1))
               + 2 |phi'|^T |M| |phi|,

    from phi_n that carry the rounding of n recurrence steps, so it is off
    by at most about K u S(x) (the worst case of a K-term sum, Higham 2002,
    sec. 3.1).  A bin is then off by at most about K u (S(a) + S(b)), and
    one where the state has almost no weight can come out negative by up to
    that much.  S stays below 3 for unit states up to |alpha| = 10, and
    measured errors stay far inside the bound: -5.0e-16 for |alpha = 4> and
    -7.0e-15 for |alpha = 10>.  Bins are not clipped, so they still add up
    to the whole interval's probability.
    """
    c = _significant(np.asarray(amplitudes))
    phi, dphi = _edge_terms(edges, c.size)
    n = np.arange(c.size)
    w = np.abs(c) ** 2
    tails = np.cumsum(w[::-1])[::-1][1:] / np.sqrt(2.0 * n[1:])
    diagonal = (np.array([erf(x) for x in edges]) / 2 * w.sum()
                - tails @ (phi[:-1] * phi[1:]))
    with np.errstate(divide="ignore", invalid="ignore"):
        M = np.real(np.outer(np.conj(c), c)) / (2.0 * (n[None, :] - n[:, None]))
    M[n, n] = 0.0
    return np.diff(diagonal + 2.0 * np.sum(dphi * (M @ phi), axis=0))
