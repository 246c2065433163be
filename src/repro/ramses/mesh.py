"""Periodic mesh operations: CIC mass deposit and field interpolation.

Cloud-in-cell is the workhorse of the PM solver.  Both directions run on
the compiled kernels of ``_physcore.c`` when a C toolchain is available
(weights computed once per particle, one scatter/gather call instead of
8 numpy index passes) and on fully vectorized numpy mirrors otherwise —
a flattened ``np.bincount`` accumulation for the scatter (``np.add.at``
is notoriously slow) and fancy indexing for the gather.  The two
implementations are *bit-identical*: the C scatter accumulates corner-
major in exactly the order the bincount mirror (and the historical
``np.add.at`` passes) sum their addends, and the test suite asserts
``array_equal`` between them on seeded inputs.

Both directions accept a precomputed ``weights=(i0, frac)`` pair from
:func:`cic_weights` so a force evaluation that deposits and gathers at
the same positions prices the weights once.

Deposit conserves mass to machine precision (a hypothesis test asserts
it) and the deposit/interpolate pair is adjoint, which keeps the PM
force momentum-conserving to the accuracy of the differencing scheme.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .physcore import phys_c

__all__ = ["cic_weights", "cic_deposit", "cic_interpolate", "density_contrast"]


def cic_weights(x: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Base cell indices and weights for CIC on an n^3 periodic grid.

    Returns ``(i0, frac)`` where ``i0`` is the lower cell index per axis
    and ``frac`` the fractional offset, both (N, 3).  The pair can be
    passed back to :func:`cic_deposit` / :func:`cic_interpolate` (for the
    same positions *and the same n*) to avoid recomputing it.
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    s = x * n - 0.5          # position in cell-centre coordinates
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    return i0, frac


def _deposit_py(i0: np.ndarray, frac: np.ndarray, mass: np.ndarray,
                n: int) -> np.ndarray:
    """Pure-numpy scatter: one flattened bincount over all 8 corners.

    The corner contributions are laid out corner-major (all particles'
    corner (0,0,0) entries, then corner (0,0,1), ...), so bincount's
    sequential accumulation adds them per cell in exactly the order the
    historical 8x ``np.add.at`` implementation did — bit-identical
    grids, ~an order of magnitude faster.
    """
    npart = len(i0)
    flat = np.empty(8 * npart, dtype=np.int64)
    wts = np.empty(8 * npart, dtype=np.float64)
    k = 0
    for dx in (0, 1):
        wx = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
        ix = (i0[:, 0] + dx) % n
        for dy in (0, 1):
            wy = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
            iy = (i0[:, 1] + dy) % n
            for dz in (0, 1):
                wz = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                iz = (i0[:, 2] + dz) % n
                flat[k * npart:(k + 1) * npart] = (ix * n + iy) * n + iz
                wts[k * npart:(k + 1) * npart] = mass * wx * wy * wz
                k += 1
    grid = np.bincount(flat, weights=wts, minlength=n ** 3)
    return grid.reshape(n, n, n)


def cic_deposit(x: np.ndarray, mass: np.ndarray, n: int,
                weights: Optional[Tuple[np.ndarray, np.ndarray]] = None
                ) -> np.ndarray:
    """Deposit particle masses onto an (n, n, n) periodic grid with CIC.

    Parameters
    ----------
    x : (N, 3) positions in [0, 1)
    mass : (N,) masses
    n : grid cells per side
    weights : optional precomputed ``cic_weights(x, n)`` pair

    Returns the mass grid (not density): ``grid.sum() == mass.sum()``.
    """
    x = np.asarray(x, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError("x must be (N, 3)")
    if mass.shape != (x.shape[0],):
        raise ValueError("mass must be (N,)")
    if n < 1:
        raise ValueError("grid size must be >= 1")
    if len(x) == 0:
        return np.zeros((n, n, n), dtype=np.float64)
    i0, frac = cic_weights(x, n) if weights is None else weights
    if phys_c is not None:
        grid = np.zeros((n, n, n), dtype=np.float64)
        phys_c.cic_deposit(np.ascontiguousarray(i0),
                           np.ascontiguousarray(frac),
                           np.ascontiguousarray(mass), grid, len(x), n)
        return grid
    return _deposit_py(i0, frac, mass, n)


def _interpolate_py(field: np.ndarray, i0: np.ndarray, frac: np.ndarray,
                    n: int, vector: bool) -> np.ndarray:
    """Pure-numpy gather: 8 fancy-indexing passes, corner-major."""
    npart = len(i0)
    out_shape = (npart, field.shape[3]) if vector else (npart,)
    out = np.zeros(out_shape, dtype=np.float64)
    for dx in (0, 1):
        wx = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
        ix = (i0[:, 0] + dx) % n
        for dy in (0, 1):
            wy = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
            iy = (i0[:, 1] + dy) % n
            for dz in (0, 1):
                wz = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                iz = (i0[:, 2] + dz) % n
                w = wx * wy * wz
                if vector:
                    out += field[ix, iy, iz] * w[:, None]
                else:
                    out += field[ix, iy, iz] * w
    return out


def cic_interpolate(field: np.ndarray, x: np.ndarray,
                    weights: Optional[Tuple[np.ndarray, np.ndarray]] = None
                    ) -> np.ndarray:
    """Gather a grid field at particle positions with CIC weights.

    ``field`` may be (n, n, n) for a scalar or (n, n, n, C) for C components
    (e.g. acceleration); the result is (N,) or (N, C) accordingly.  A
    precomputed ``weights`` pair must come from ``cic_weights(x, n)`` with
    ``n == field.shape[0]``.
    """
    field = np.asarray(field, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if field.ndim not in (3, 4):
        raise ValueError("field must be (n,n,n) or (n,n,n,C)")
    n = field.shape[0]
    if field.shape[1] != n or field.shape[2] != n:
        raise ValueError("field must be cubic")
    i0, frac = cic_weights(x, n) if weights is None else weights
    vector = field.ndim == 4
    if phys_c is not None:
        ncomp = field.shape[3] if vector else 1
        out_shape = (len(x), ncomp) if vector else (len(x),)
        out = np.zeros(out_shape, dtype=np.float64)
        if len(x):
            phys_c.cic_gather(np.ascontiguousarray(i0),
                              np.ascontiguousarray(frac),
                              np.ascontiguousarray(field), out,
                              len(x), n, ncomp)
        return out
    return _interpolate_py(field, i0, frac, n, vector)


def density_contrast(x: np.ndarray, mass: np.ndarray, n: int,
                     weights: Optional[Tuple[np.ndarray, np.ndarray]] = None
                     ) -> np.ndarray:
    """Density contrast delta = rho/rho_mean - 1 on an n^3 grid.

    The mean is taken over the actual deposited mass, so delta always has
    zero mean regardless of the particle masses (full-box or zoom sets).
    """
    grid = cic_deposit(x, mass, n, weights=weights)
    total = grid.sum()
    if total <= 0:
        raise ValueError("no mass deposited")
    mean = total / n ** 3
    return grid / mean - 1.0
