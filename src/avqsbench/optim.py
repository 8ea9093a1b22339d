"""Deterministic optimization over the simplex and over isometries.

Concave functions of mixture weights, the hull costs and the negated k=1
distillation rate, are maximized by one certified pairwise Frank-Wolfe ascent.
The nonsmooth trace-norm distance to a hull is minimized by projected
subgradient descent, without a certificate.  The distillation instrument is
found by Riemannian gradient ascent over isometries."""

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
) -> tuple[np.ndarray, float, dict]:
    """Pairwise Frank-Wolfe ascent of a concave f over the n-simplex.

    ``value_and_grad(p)`` returns f(p) and its gradient up to a constant vector.
    From the uniform point, each step moves weight from the away vertex (smallest
    partial derivative on the support) to the Frank-Wolfe vertex (largest) by an
    exact line search, until the duality gap max_s g_s - <g, p> is at most 1e-9:
    by concavity the maximum lies in [value, value + gap].  ``meta`` holds
    ``iterations``, ``duality_gap`` and ``stop_reason`` ("gap", or "maxiter"
    after 1000 steps).
    """
    if n < 1:
        raise ValueError("simplex dimension must be >= 1")
    tol, maxiter = 1e-9, 1000
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
    """Exact line search on the derivative of the concave t -> f(p + t d), which
    decreases on [0, end], until its bracket is at most 1e-12 * end wide.  The
    slope at ``end`` itself is never taken: the away vertex is empty there, and a
    log clipped to the support misses the infinite slope of a vertex whose support
    leaves the rest's.  So trials bisect until the bracket has left ``end``, then
    follow Illinois false position, landing no nearer than half the tolerance to a
    bracket end, so the bracket closes on the root instead of creeping toward it.
    If no trial has a negative slope, ``end`` is returned exactly, emptying the
    away vertex; a leftover 1e-12 would stall the loop on tiny steps."""
    tol = 1e-12 * end
    lo, hi, f_lo, f_hi = 0.0, end, direction @ value_and_grad(p)[1], np.nan
    side = 0  # which end the last trial replaced
    while hi - lo > tol:
        if np.isfinite(f_lo - f_hi):
            t = min(max(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo + tol / 2), hi - tol / 2)
        else:  # the bracket still ends at ``end``, or a slope is infinite
            t = (lo + hi) / 2
        f_t = direction @ value_and_grad(p + t * direction)[1]
        if f_t == 0:
            return t
        if f_t > 0:
            lo, f_lo = t, f_t
            if side > 0:
                f_hi /= 2
            side = 1
        else:
            hi, f_hi = t, f_t
            if side < 0:
                f_lo /= 2
            side = -1
    return end if hi == end else lo


def minimize_over_simplex(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    n: int,
) -> tuple[np.ndarray, float]:
    """Projected subgradient descent of a convex, possibly nonsmooth f over the n-simplex.

    ``value_and_grad(p)`` returns f(p) and a subgradient.  From the uniform point,
    step t moves a length max(|f(uniform)|, 0.1)/sqrt(t+1) against the normalized
    subgradient and projects back.  The best iterate seen and its value are
    returned, so the value is an upper estimate of the minimum; it stops after 50
    steps in a row that improve the best value by at most 1e-6, or after 2000 steps.
    """
    p = np.full(n, 1.0 / n)
    value, g = value_and_grad(p)
    best_p, best_v = p, value
    if n == 1:
        return best_p, best_v
    step0 = max(abs(value), 0.1)
    stall = 0
    for t in range(2000):
        norm = np.linalg.norm(g)
        if norm < 1e-14:
            break
        p = project_to_simplex(p - (step0 / np.sqrt(t + 1.0)) * g / norm)
        v, g = value_and_grad(p)
        if v < best_v - 1e-6:
            best_v, best_p = v, p
            stall = 0
        else:
            if v < best_v:
                best_v, best_p = v, p
            stall += 1
            if stall >= 50:
                break
    return best_p, best_v


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
