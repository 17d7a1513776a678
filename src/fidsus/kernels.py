"""The scalar kernel of chi_F's spectral sum.

``tanh(x)/x`` weighs each pair term of `chi_f_spectral`.  It is defined
for all real arguments, switches to a series where direct evaluation
would lose precision, and stays inside its proven envelope.  chi_FG's
imaginary-time integral has no kernel here: its quadrature audits the
spectral sum directly.
"""

import numpy as np

from .config import KERNEL_SERIES_CUTOFF


def tanh_over_x(x):
    """Evaluate ``tanh(x)/x`` with its removable singularity filled in.

    Below ``KERNEL_SERIES_CUTOFF`` the truncated series ``1 - x^2/3 + 2x^4/15``
    is used.  The returned values are clamped into ``[1 - x^2/3, 1]``:
    the bounds hold exactly in real arithmetic, and raw ``tanh`` rounding
    can otherwise stray one ulp outside near the switchover.

    Parameters
    ----------
    x : array_like
        Real argument, any sign.

    Returns
    -------
    ndarray or float
        ``tanh(x)/x``, even in ``x``, inside ``[1 - x^2/3, 1]``.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    # three float temporaries in all, each ufunc writing into one of them:
    # the values are those of where(small, 1 - x2/3 + (2/15) x2 x2,
    # tanh(safe)/safe) clamped, op for op
    a = np.abs(np.atleast_1d(arr))
    small = a < KERNEL_SERIES_CUTOFF
    x2 = a * a
    np.copyto(a, 1.0, where=small)  # a is now safe
    out = np.tanh(a)
    out /= a
    np.multiply(x2, 2.0 / 15.0, out=a)
    a *= x2
    x2 /= 3.0
    np.subtract(1.0, x2, out=x2)  # x2 is now lower
    a += x2  # the series
    np.copyto(out, a, where=small)
    np.minimum(out, 1.0, out=out)
    np.maximum(out, x2, out=out)
    return float(out[0]) if scalar else out.reshape(arr.shape)
