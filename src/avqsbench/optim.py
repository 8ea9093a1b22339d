"""Deterministic optimization: certified Frank-Wolfe ascent of concave functions
and projected descent over the simplex, Riemannian gradient ascent over isometries."""

from __future__ import annotations

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


def retract_qr(y: np.ndarray) -> np.ndarray:
    """Q of y = QR, R's diagonal made positive: the QR retraction onto isometries."""
    q, r = np.linalg.qr(y)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def maximize_over_isometries(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    v: np.ndarray,
    maxiter: int,
) -> tuple[np.ndarray, float, dict]:
    """Riemannian gradient ascent of f over isometries V (V^dagger V = I) from ``v``.

    ``value_and_grad(V)`` returns f(V) and its gradient E in the inner product
    Re tr(A^dagger B).  Steps go along Gamma = E - V herm(V^dagger E) and are
    retracted by :func:`retract_qr` (Edelman, Arias & Smith 1998), with Armijo
    backtracking from the Barzilai-Borwein length (Wen & Yin 2013).  ``meta``
    holds ``iterations``, ``evaluations`` and ``stop_reason``: ||Gamma|| <=
    1e-8 ("gradient"), a gain <= 1e-10 ("stalled") or "maxiter".
    """
    value, egrad = value_and_grad(v)
    meta = {"iterations": 0, "evaluations": 1, "stop_reason": "maxiter"}
    step, last = 1.0, None
    while meta["iterations"] < maxiter:
        vhe = v.conj().T @ egrad
        gamma = egrad - v @ (vhe + vhe.conj().T) / 2
        slope = np.vdot(gamma, gamma).real
        if slope <= 1e-16:
            meta["stop_reason"] = "gradient"
            break
        if last is not None:
            s, y = v - last[0], gamma - last[1]
            step = abs(np.vdot(s, y).real) / max(np.vdot(y, y).real, 1e-300)
        while True:
            trial = retract_qr(v + step * gamma)
            trial_value, trial_grad = value_and_grad(trial)
            meta["evaluations"] += 1
            if trial_value >= value + 1e-4 * step * slope or step**2 * slope < 1e-24:
                break
            step /= 2
        meta["iterations"] += 1
        gain, last = trial_value - value, (v, gamma)
        if gain > 0:
            v, value, egrad = trial, trial_value, trial_grad
        if gain <= 1e-10:
            meta["stop_reason"] = "stalled"
            break
    return v, value, meta
