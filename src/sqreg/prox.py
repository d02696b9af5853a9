"""Proximal mappings of the weighted l1 norm and the averaged check loss.

Throughout, ``gamma`` is the quadratic coefficient: the maps solve

    prox_weighted_l1:  argmin_t  omega_i |t| + (gamma/2)(t - z_i)^2
    prox_check_loss:   argmin_t  (1/n) theta_tau(t) + (gamma/2)(t - z_i)^2

componentwise, with theta_tau(u) = (tau - 1{u<=0}) u. Both functions are
positively homogeneous, so each prox is the box-projection identity
z - clip(z, lo, hi) with the box [lo, hi] = (subdifferential at 0) / gamma,
evaluated by ``box_residual``.
"""

import numpy as np


def box_residual(q, lo, hi, clip=None, out=None):
    """q - clip(q, lo, hi), the clip taken maximum-then-minimum. ``clip`` and
    ``out`` are optional buffers for the clip and the result. A zero of the
    result is +0.0, except at q = -0.0 in the box {0}, where the map is the
    identity."""
    c = np.minimum(np.maximum(q, lo, out=clip), hi, out=clip)
    return np.subtract(q, c, out=out)


def prox_weighted_l1(z, omega, gamma):
    """Soft threshold with per-component threshold omega_i / gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    thr = np.asarray(omega, dtype=float) / gamma
    return box_residual(np.asarray(z, dtype=float), -thr, thr)


def prox_check_loss(z, gamma, tau, n):
    """Two-sided shrinkage with kinks tau/(n gamma) and (tau-1)/(n gamma).

    Returns z - tau/(n gamma) above the upper kink, z - (tau-1)/(n gamma)
    below the lower kink, and 0 in the dead zone between them.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0,1)")
    return box_residual(np.asarray(z, dtype=float), (tau - 1.0) / (n * gamma), tau / (n * gamma))
