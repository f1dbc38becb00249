"""Worst-case complexity bounds of §4.5 (Fig. 8).

Closed forms for the maximum number of decompositions D(n) of each
CliqueSquare variant on an n-node variable graph.  The clique-count
lemmas (4.1, 4.2) and the T(n) recurrences (Eqs. 1–2) bounding total
clique reductions are the tests' oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import cache
from math import ceil, comb


@cache
def stirling2(n: int, k: int) -> int:
    """Stirling partition number of the second kind {n k}: ways to
    partition an n-set into k non-empty blocks."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def d_mxc_plus(n: int) -> int:
    """Eq. 11: D(n) <= C(n+1, ceil(n/2)) for MXC+."""
    return comb(n + 1, ceil(n / 2))


def d_xc_plus(n: int) -> int:
    """Eq. 10: D(n) <= sum_{k=1}^{n-1} C(n+1, k) for XC+."""
    return sum(comb(n + 1, k) for k in range(1, n))


def d_msc_plus(n: int) -> int:
    """Eq. 9: D(n) <= C(2n+1, ceil(n/2)) for MSC+."""
    return comb(2 * n + 1, ceil(n / 2))


def d_sc_plus(n: int) -> int:
    """Eq. 8: D(n) <= sum_{k=1}^{n-1} C(2n+1, k) for SC+."""
    return sum(comb(2 * n + 1, k) for k in range(1, n))


def d_mxc(n: int) -> int:
    """Eq. 7: D(n) = {n, ceil(n/2)} (Stirling) for MXC."""
    return stirling2(n, ceil(n / 2))


def d_xc(n: int) -> int:
    """Eq. 6: D(n) <= sum_{k=0}^{n-1} {n k} for XC."""
    return sum(stirling2(n, k) for k in range(0, n))


def d_msc(n: int) -> int:
    """Eq. 5: D(n) <= C(2^n - 1, ceil(n/2)) for MSC."""
    return comb(2**n - 1, ceil(n / 2))


def d_sc(n: int) -> int:
    """Eq. 4: D(n) <= sum_{k=1}^{n-1} C(2^n - 1, k) for SC."""
    return sum(comb(2**n - 1, k) for k in range(1, n))


#: Fig. 8 column order: decomposition-count bound per option name.
DECOMPOSITION_BOUNDS = {
    "MXC+": d_mxc_plus,
    "MSC+": d_msc_plus,
    "MXC": d_mxc,
    "MSC": d_msc,
    "XC+": d_xc_plus,
    "SC+": d_sc_plus,
    "XC": d_xc,
    "SC": d_sc,
}

def decomposition_bound(option_name: str, n: int) -> int:
    """Fig. 8 worst-case D(n) for the named option."""
    try:
        fn = DECOMPOSITION_BOUNDS[option_name]
    except KeyError:
        raise ValueError(f"unknown option {option_name!r}") from None
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0
    return fn(n)
