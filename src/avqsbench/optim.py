"""Deterministic optimization over the probability simplex: a certified
Frank-Wolfe ascent for concave functions and projected descent."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p : p >= 0, sum p = 1} (sort-based)."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - 1))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def maximize_concave_over_simplex(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    n: int,
    tol: float = 1e-9,
    maxiter: int = 1000,
) -> tuple[np.ndarray, float, dict]:
    """Pairwise Frank-Wolfe ascent of a concave f over the n-simplex.

    ``value_and_grad(p)`` returns f(p) and its gradient up to a constant vector.
    From the uniform point, each step moves weight from the away vertex (smallest
    partial derivative on the support) to the Frank-Wolfe vertex (largest) by an
    exact line search, until the duality gap max_s g_s - <g, p> is at most ``tol``:
    by concavity the maximum lies in [value, value + gap].  ``meta`` holds
    ``iterations``, ``duality_gap`` and ``stop_reason`` ("gap" or "maxiter").
    """
    if n < 1:
        raise ValueError("simplex dimension must be >= 1")
    p = np.full(n, 1.0 / n)
    value, grad = value_and_grad(p)
    for iterations in range(maxiter + 1):
        fw = int(np.argmax(grad))
        gap = max(float(grad[fw] - grad @ p), 0.0)
        if gap <= tol or iterations == maxiter:
            break
        away = int(np.argmin(np.where(p > 0, grad, np.inf)))
        direction = np.eye(n)[fw] - np.eye(n)[away]
        p = p + _line_search(value_and_grad, p, direction, p[away]) * direction
        value, grad = value_and_grad(p)
    stop_reason = "gap" if gap <= tol else "maxiter"
    return p, value, {"iterations": iterations, "duality_gap": gap, "stop_reason": stop_reason}


def _line_search(value_and_grad, p, direction, end):
    """Exact line search: bisection on the derivative of the concave t -> f(p + t d) on
    [0, end].  A derivative still positive within a relative 1e-12 of the end gives ``end``
    exactly, emptying the away vertex; a leftover 1e-12 would stall the loop on tiny steps."""
    lo, hi = 0.0, end
    while hi - lo > 1e-12 * end:
        mid = 0.5 * (lo + hi)
        if direction @ value_and_grad(p + mid * direction)[1] > 0:
            lo = mid
        else:
            hi = mid
    return end if hi == end else lo


def minimize_over_simplex(
    fn: Callable[[np.ndarray], float],
    n: int,
    grad: Callable[[np.ndarray], np.ndarray] | None = None,
    init: np.ndarray | None = None,
    iters: int = 500,
    tol: float = 1e-6,
    step0: float | None = None,
) -> tuple[np.ndarray, float, dict]:
    """Projected (sub)gradient descent of fn over the n-simplex.

    With no gradient callback, a forward-difference estimate along the
    coordinate axes is used (projection keeps iterates feasible).  The best
    iterate seen is returned; stops early once the best value stalls below
    ``tol`` improvement for a stretch of iterations.
    """
    if n == 1:
        p = np.ones(1)
        return p, float(fn(p)), {"iterations": 0}
    p = project_to_simplex(np.full(n, 1.0 / n) if init is None else np.asarray(init, dtype=float))
    best_p, best_v = p.copy(), float(fn(p))
    if step0 is None:
        step0 = max(abs(best_v), 0.1)
    stall = 0
    used = 0
    h = 1e-6
    for t in range(iters):
        used = t + 1
        if grad is not None:
            g = np.asarray(grad(p), dtype=float)
        else:
            base = fn(p)
            g = np.empty(n)
            for i in range(n):
                q = p.copy()
                q[i] += h
                g[i] = (fn(project_to_simplex(q)) - base) / h
        norm = np.linalg.norm(g)
        if norm < 1e-14:
            break
        p = project_to_simplex(p - (step0 / np.sqrt(t + 1.0)) * g / norm)
        v = float(fn(p))
        if v < best_v - tol:
            best_v, best_p = v, p.copy()
            stall = 0
        else:
            if v < best_v:
                best_v, best_p = v, p.copy()
            stall += 1
            if stall >= 50:
                break
    return best_p, best_v, {"iterations": used}


@lru_cache(maxsize=16)
def _hermitian_packing(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the diagonal, the strict upper triangle and its mirror
    in a dim x dim matrix; read-only, shared by every call at this dim."""
    iu = np.triu_indices(dim, k=1)
    flat = (np.arange(dim) * (dim + 1), iu[0] * dim + iu[1], iu[1] * dim + iu[0])
    for idx in flat:
        idx.setflags(write=False)
    return flat


def hermitian_from_params(theta: np.ndarray, dim: int) -> np.ndarray:
    """Pack a real parameter vector of length dim^2 into a Hermitian matrix."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != dim * dim:
        raise ValueError(f"need {dim * dim} parameters for a {dim}x{dim} Hermitian matrix")
    diag, upper, lower = _hermitian_packing(dim)
    off = theta[dim:].reshape(2, -1)
    h = np.zeros(dim * dim, dtype=complex)
    h[diag] = theta[:dim]
    h[upper] = off[0] + 1j * off[1]
    h[lower] = off[0] - 1j * off[1]
    return h.reshape(dim, dim)


def unitary_from_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T
