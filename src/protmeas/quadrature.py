"""Closed-form integrals of products of Hermite functions over an interval.

phi_n'' = (x^2 - (2n+1)) phi_n, so the Wronskian of phi_m and phi_n is an
antiderivative of their product.  For m != n

    int_a^b phi_m phi_n dx = [phi_m' phi_n - phi_m phi_n']_a^b / (2(n - m)),

with phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}.  The diagonal
follows from the ladder operators by the two-term recurrence

    D_{n+1} = D_n - [phi_n phi_{n+1}]_a^b / sqrt(2(n+1)),
    D_0 = (erf b - erf a) / 2.

Both need only phi_0..phi_dim at the finite endpoints; an infinite endpoint
contributes nothing, since every phi_n vanishes there.
"""

from math import erf, isinf

import numpy as np

from .oscillator import hermite_functions


def _boundary_terms(phi, dim: int):
    """Wronskians phi_m' phi_n - phi_m phi_n' and products phi_n phi_{n+1} at a point.

    `phi` holds phi_0..phi_dim there; it is None at an infinite endpoint,
    where every phi_n vanishes.
    """
    if phi is None:
        return np.zeros((dim, dim)), np.zeros(dim - 1)
    n = np.arange(dim)
    dphi = -np.sqrt((n + 1) / 2.0) * phi[1:]
    dphi[1:] += np.sqrt(n[1:] / 2.0) * phi[:dim - 1]
    phi = phi[:dim]
    return np.outer(dphi, phi) - np.outer(phi, dphi), phi[:-1] * phi[1:]


def interval_overlaps(a: float, b: float, dim: int) -> np.ndarray:
    """The dim x dim matrix of int_a^b phi_m phi_n dx; a or b may be infinite.

    One Hermite recurrence runs over the finite endpoints together.
    """
    finite = [x for x in (a, b) if not isinf(x)]
    columns = iter(hermite_functions(np.array(finite), dim + 1).T)
    (wronskian_a, products_a), (wronskian_b, products_b) = (
        _boundary_terms(None if isinf(x) else next(columns), dim) for x in (a, b))
    n = np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (wronskian_b - wronskian_a) / (2.0 * (n[None, :] - n[:, None]))
    steps = (products_b - products_a) / np.sqrt(2.0 * n[1:])
    out[n, n] = 0.5 * (erf(b) - erf(a)) - np.concatenate(([0.0], np.cumsum(steps)))
    return out
