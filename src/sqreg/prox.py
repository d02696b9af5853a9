"""Closed-form proximal mappings, Moreau envelopes and Clarke Jacobian
diagonals for the weighted l1 norm and the averaged check loss.

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


def moreau_env_weighted_l1(z, omega, gamma):
    """Envelope value min_t  sum_i omega_i|t_i| + (gamma/2)||t - z||^2."""
    p = prox_weighted_l1(z, omega, gamma)
    omega = np.asarray(omega, dtype=float)
    return float(np.sum(omega * np.abs(p)) + 0.5 * gamma * np.sum((p - np.asarray(z, float)) ** 2))


def moreau_env_check_loss(z, gamma, tau, n):
    """Envelope value min_t  (1/n) sum_i theta_tau(t_i) + (gamma/2)||t - z||^2."""
    z = np.asarray(z, dtype=float)
    p = prox_check_loss(z, gamma, tau, n)
    loss = np.sum((tau - (p <= 0)) * p) / n
    return float(loss + 0.5 * gamma * np.sum((p - z) ** 2))


def clarke_jacobian_check_loss_prox(z, gamma, tau, n):
    """Diagonal element of the Clarke Jacobian of prox_check_loss at z.

    Returns the 0/1 diagonal: 1 strictly outside the kinks, 0 inside and at
    a kink.
    """
    z = np.asarray(z, dtype=float)
    hi = tau / (n * gamma)
    lo = (tau - 1.0) / (n * gamma)
    return np.where((z > hi) | (z < lo), 1.0, 0.0)


def clarke_jacobian_weighted_l1_prox(z, omega, gamma):
    """Diagonal element of the Clarke Jacobian of prox_weighted_l1 at z.

    Returns the 0/1 diagonal: 1 where |gamma z_i| > omega_i, 0 elsewhere
    (the kink |gamma z_i| = omega_i included).
    """
    z = np.asarray(z, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return np.where(np.abs(gamma * z) > omega, 1.0, 0.0)
