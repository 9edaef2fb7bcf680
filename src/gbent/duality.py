"""Duals of gbent functions and the generalized Gray map.

For even n every gbent f has a gbent dual f* with H_f(u) = 2^{n/2}
zeta^{f*(u)}; its coordinates are assembled from plain Boolean duals of the
components g_0 and g_{2^j}.  The construction is certified on every call:
dual_gbent never returns without checking the defining identity at all u
and the gbentness of the result.

The Gray map sends f in GB_n^{2^k} to the Boolean function

    psi(f)(x, y) = a_0(x) y_0 + ... + a_{k-2}(x) y_{k-2} + a_{k-1}(x)

on n + k - 1 variables; its truth table is the concatenation of the
component tables g_0, g_1, ..., g_{2^{k-1}-1}.  The Walsh spectrum of the
image satisfies W_F(u, z_r) = H^{(r)} W(u) for arbitrary f, and for gbent f
the image is (k-1)-plateaued (even n) or (k-2)-plateaued (odd n).

No dual is constructed for odd n; only the exact spectrum is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import gbent_verdict, is_gbent_direct
from .boolfn import BooleanFunction, SpectralClass, classify, dual, wht
from .errors import GbentError, IndexOutOfRange, InternalInconsistency, NotGbent
from .gbf import (
    GeneralizedBooleanFunction,
    assemble,
    component_walsh_matrix,
    components,
    flat_mask,
    gwht,
    zeta_powers,
)
from .hadamard import row


def dual_gbent(f: GeneralizedBooleanFunction) -> GeneralizedBooleanFunction:
    """Dual of a gbent function on an even number of variables.

    Coordinates of f*: b_{k-1} = g_0* and b_j = g_0* + g_{2^j}* for
    j < k-1, where g_0 = a_{k-1} and g_{2^j} = a_{k-1} + a_j are bent
    components of f.  Before returning, verifies H_f(u) = 2^{n/2}
    zeta^{f*(u)} at every u and that f* is itself gbent.
    """
    if f.n % 2:
        raise GbentError("no dual is constructed for odd n")
    spec = gwht(f)
    coeffs = spec.coeffs
    flat = flat_mask(f.n, spec.norm_squared_all())
    if not flat.all():
        raise NotGbent(f"dual requires a gbent function; fails at u in "
                       f"{np.flatnonzero(~flat)[:8].tolist()}")
    g0 = f.coordinate(f.k - 1)
    d0 = dual(g0)
    coords = [d0 ^ dual(g0 ^ f.coordinate(j)) for j in range(f.k - 1)]
    coords.append(d0)
    fdual = assemble(coords)

    wrong = (coeffs != zeta_powers(fdual.values, f.k) << (f.n // 2)).any(axis=1)
    if wrong.any():
        # the witness of H_f(u) names the value the dual should have taken;
        # is_gbent_direct raises first if H_f(u) is not +-2^(n/2) zeta^r at all
        u = int(np.flatnonzero(wrong)[0])
        r, sign = (column[u] for column in is_gbent_direct(f).witnesses)
        raise InternalInconsistency(
            f"dual value at u={u} is {int(fdual.values[u])}, "
            f"but H_f(u) = {sign:+d} 2^(n/2) zeta^{r}")
    if not gbent_verdict(fdual):
        raise InternalInconsistency("constructed dual is not gbent")
    return fdual


@dataclass(frozen=True)
class GrayImage:
    """Boolean image of f in GB_n^{2^k} on n + k - 1 variables.

    The point (x, y) is packed as index x + 2^n y, with y little-endian
    over y_0..y_{k-2}.  The restriction to y = i is the component g_i.
    """

    n: int
    k: int
    function: BooleanFunction

    def to_text(self) -> str:
        return (f"# gray image of a function with n={self.n} k={self.k}\n"
                + self.function.to_text())


def gray_map(f: GeneralizedBooleanFunction) -> GrayImage:
    """Generalized Gray map psi(f)(x, y) = sum a_i(x) y_i + a_{k-1}(x)."""
    if f.k < 2:
        raise GbentError(f"the Gray map needs k >= 2, got k={f.k}")
    table = np.concatenate([g.table for g in components(f)])
    return GrayImage(f.n, f.k, BooleanFunction(f.n + f.k - 1, table))


def gray_walsh_identity(f: GeneralizedBooleanFunction, u: int, z_r: int) -> int:
    """Walsh value of the Gray image at (u, z_r) from the component spectra.

    Returns the dot product of Hadamard row z_r with the vector
    (W_{g_0}(u), ..., W_{g_{2^{k-1}-1}}(u)); this equals the direct Walsh
    transform of gray_map(f) at index u + 2^n z_r for arbitrary f.
    """
    if f.k < 2:
        raise GbentError(f"the Gray identity needs k >= 2, got k={f.k}")
    if not 0 <= u < 1 << f.n:
        raise IndexOutOfRange(f"u={u} outside [0, 2^n)")
    # the row is int64, so the sum of 2^{k-1} entries of magnitude up to 2^n
    # in W's narrower type is taken in int64
    W = component_walsh_matrix(f)
    return int(row(f.k - 1, z_r) @ W[u])


def verify_gray_plateaued(f: GeneralizedBooleanFunction) -> SpectralClass:
    """Certify the plateau order of the Gray image of a gbent function.

    Returns the spectral class of psi(f), which must be (k-1)-plateaued for
    even n and (k-2)-plateaued for odd n (reported as Bent or SemiBent when
    the order is 0 or 1).
    """
    if not gbent_verdict(f):
        raise NotGbent("Gray plateau verification requires a gbent function")
    image = gray_map(f)
    cls = classify(wht(image.function))
    expected = f.k - 1 if f.n % 2 == 0 else f.k - 2
    if cls.s != expected:
        raise InternalInconsistency(
            f"Gray image of a gbent function classified {cls}, "
            f"expected plateau order {expected}")
    return cls
