"""Hamilton quaternion arithmetic on numpy arrays.

A quaternion array is any float array whose last axis has length 4 and
holds the components (q0, q1, q2, q3) of q0 + i*q1 + j*q2 + k*q3.  All
operations broadcast over the leading axes, so a single quaternion is a
shape ``(4,)`` array and a sampled quaternion field is ``(n1, n2, 4)``.

Multiplication follows i*j = k, j*k = i, k*i = j with i^2 = j^2 = k^2 = -1.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = [
    "quat",
    "qmul",
    "qconj",
    "qnorm",
    "unit_exp",
    "qmatmul",
]


def quat(q0=0.0, q1=0.0, q2=0.0, q3=0.0):
    """Build a single quaternion as a shape (4,) float array."""
    return np.array([q0, q1, q2, q3], dtype=float)


def qmul(p, q):
    """Hamilton product p*q, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


def qconj(q):
    """Quaternion conjugate: negate the vector part."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm(q):
    """Pointwise modulus sqrt(q0^2 + q1^2 + q2^2 + q3^2)."""
    q = np.asarray(q, dtype=float)
    return np.sqrt(np.sum(q * q, axis=-1))


def unit_exp(axis, theta):
    """cos(theta) + u*sin(theta) for u the i or j imaginary unit.

    ``theta`` may be any array; the result has shape theta.shape + (4,).
    Only the i and j axes are supported: these are the only phase factors
    the transform kernels need.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + (4,))
    out[..., 0] = np.cos(theta)
    if axis == "i":
        out[..., 1] = np.sin(theta)
    elif axis == "j":
        out[..., 2] = np.sin(theta)
    else:
        raise ParameterError(f"unit_exp axis must be 'i' or 'j', got {axis!r}")
    return out


def qmatmul(a, b):
    """Matrix product of quaternion matrices.

    ``a`` has shape (..., m, n, 4) and ``b`` shape (..., n, p, 4); each
    entry pair multiplies with the Hamilton product and entries sum along
    the contracted axis.  This is plain quadrature machinery: sixteen real
    matrix products arranged by the multiplication table.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = (a[..., m] for m in range(4))
    b0, b1, b2, b3 = (b[..., m] for m in range(4))
    return np.stack(
        [
            a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
            a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
            a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
            a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
        ],
        axis=-1,
    )
