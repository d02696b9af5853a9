"""Closed-form proximal mappings of the weighted l1 norm and the averaged
check loss.

Throughout, ``gamma`` is the quadratic coefficient: the maps solve

    prox_weighted_l1:  argmin_t  omega_i |t| + (gamma/2)(t - z_i)^2
    prox_check_loss:   argmin_t  (1/n) theta_tau(t) + (gamma/2)(t - z_i)^2

componentwise, with theta_tau(u) = (tau - 1{u<=0}) u.
"""

import numpy as np


def prox_weighted_l1(z, omega, gamma):
    """Soft threshold with per-component threshold omega_i / gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=float)
    thr = np.asarray(omega, dtype=float) / gamma
    return np.sign(z) * np.maximum(np.abs(z) - thr, 0.0)


def prox_check_loss(z, gamma, tau, n):
    """Two-sided shrinkage with kinks tau/(n gamma) and (tau-1)/(n gamma).

    Returns z - tau/(n gamma) above the upper kink, z - (tau-1)/(n gamma)
    below the lower kink, and 0 in the dead zone between them.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0,1)")
    z = np.asarray(z, dtype=float)
    hi = tau / (n * gamma)
    lo = (tau - 1.0) / (n * gamma)
    return np.where(z > hi, z - hi, np.where(z < lo, z - lo, 0.0))
