"""Local polish of candidate minimizers by modified damped Newton steps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial

_EPS = float(np.finfo(float).eps)
_NOISE_UNITS = 10.0   # predicted gains below this many rounding units of f stop the descent
_MAX_ITER = 100


@dataclass
class RefineResult:
    point: tuple
    value: float
    converged: bool
    iterations: int
    grad_norm: float


def local_refine(f: Polynomial, x0) -> RefineResult:
    """Damped Newton descent toward a stationary point of f from x0.

    The Hessian is made positive definite by flipping the sign of negative
    eigenvalues (so the step is always a descent direction for f) and the step
    is backtracked with an Armijo test on f.  Stops when
    ||grad f|| <= 1e-10 * (1 + |f(x)|), or once the step's predicted gain,
    half the Newton decrement g^T H^-1 g, is within ten units of f's
    rounding noise eps * sum |c_m| |x^m| at x: there the Armijo test can no
    longer tell the step's gain from roundoff, so the step is taken whole and
    the result reported as converged.  Converges to a stationary point of the
    starting basin; no global optimality is implied.  f, grad f and the
    Hessian come from f's exponent table (``Polynomial.exponent_table``).
    """
    value, derivatives, magnitude = f.exponent_table()
    n = f.n
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"start point must have length {n}")
    fx = value(x)
    for it in range(_MAX_ITER):
        g, H = derivatives(x)
        gnorm = float(np.max(np.abs(g))) if n else 0.0
        if gnorm <= 1e-10 * (1.0 + abs(fx)):
            return RefineResult(tuple(float(v) for v in x), float(fx), True, it, gnorm)
        H = (H + H.T) / 2.0
        w, U = np.linalg.eigh(H)
        scale = max(1.0, float(np.max(np.abs(w))))
        w = np.maximum(np.abs(w), 1e-8 * scale)
        d = -(U / w) @ (U.T @ g)
        slope = float(g @ d)  # negative by construction
        if -slope / 2 <= _NOISE_UNITS * _EPS * magnitude(x):
            x = x + d
            g = derivatives(x)[0]
            return RefineResult(tuple(float(v) for v in x), value(x), True,
                                it + 1, float(np.max(np.abs(g))))
        t = 1.0
        while True:
            x_new = x + t * d
            f_new = value(x_new)
            if f_new <= fx + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-14:
                return RefineResult(tuple(float(v) for v in x), float(fx), False,
                                    it, gnorm)
        x, fx = x_new, f_new
    g = derivatives(x)[0]
    gnorm = float(np.max(np.abs(g))) if n else 0.0
    converged = gnorm <= 1e-10 * (1.0 + abs(fx))
    return RefineResult(tuple(float(v) for v in x), float(fx), converged,
                        _MAX_ITER, gnorm)
