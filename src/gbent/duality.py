"""Duals of gbent functions and the generalized Gray map.

For even n every gbent f has a gbent dual f* with H_f(u) = 2^{n/2}
zeta^{f*(u)}, read off the signed Hadamard rows of the component Walsh
vectors.  The construction is certified on every call: dual_gbent never
returns without checking the defining identity at all u and the
gbentness of the result.

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

from .analysis import gbent_verdict
from .boolfn import BooleanFunction, SpectralClass, classify, wht
from .errors import GbentError, IndexOutOfRange, InternalInconsistency, NotGbent
from .gbf import (
    GeneralizedBooleanFunction,
    component_walsh,
    component_walsh_matrix,
    components,
    gwht_coeffs,
    zeta_powers,
)
from .hadamard import match_rows, row


def dual_gbent(f: GeneralizedBooleanFunction) -> GeneralizedBooleanFunction:
    """Dual of a gbent function on an even number of variables.

    f is gbent exactly when every W(u) = sign(u) 2^{n/2} H^{(r(u))}, and then
    f*(u) = r(u) + 2^{k-1} [sign(u) < 0]: sign(u) = (-1)^{g_0*(u)} and bit j
    of r(u) is g_0*(u) + g_{2^j}*(u), the paper's coordinates b_{k-1} = g_0*
    and b_j = g_0* + g_{2^j}*.  Before returning, verifies
    H_f(u) = 2^{n/2} zeta^{f*(u)} at every u against the GWHT coefficients
    and that f* is itself gbent.
    """
    if f.n % 2:
        raise GbentError("no dual is constructed for odd n")
    r, sign, ok = match_rows(component_walsh(f.values, f.k), 1 << (f.n // 2))
    if not ok.all():
        raise NotGbent(f"dual requires a gbent function; fails at u in "
                       f"{np.flatnonzero(~ok)[:8].tolist()}")
    fdual = GeneralizedBooleanFunction(f.n, f.k, r + ((sign < 0) << (f.k - 1)))

    coeffs = gwht_coeffs(f.values, f.k)
    wrong = (coeffs != zeta_powers(fdual.values, f.k) << (f.n // 2)).any(axis=1)
    if wrong.any():
        u = int(np.flatnonzero(wrong)[0])
        raise InternalInconsistency(
            f"dual value at u={u} is {int(fdual.values[u])}, but H_f(u) has "
            f"coefficients {coeffs[u].tolist()}")
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
