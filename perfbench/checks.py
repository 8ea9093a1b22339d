"""Output checks for every benchmark invocation, and the tampered reports
that prove the checks can fail.

Closed forms are recomputed here from the benchmark's own inputs with plain
NumPy and exact rationals, not through the package's evaluation paths.  A
check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, log2

import numpy as np

from inputs import SCHUR_SPECTRUM, distill_set_matrices

RATE_TOL = 1e-6          # hull costs against their closed forms
FIDELITY_TOL = 1e-9      # worst-case protocol fidelity below 1
PROB_SUM_TOL = 1e-9      # entropy-bin probabilities summing to 1
INFIMUM_TOL = 1e-9       # distillation value above an instrument rate
# Worst bin-level relative error of the d=2 Schur-Weyl bins against
# dim(lambda) s_lambda(x, y).  The power-sum evaluation loses digits to
# cancellation; at l=30 it stays below 1e-5 on every seed tried.  Do not
# loosen: a more accurate evaluation only moves the error further below.
SCHUR_REL_TOL = 1e-4


def _entropy_bits(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


def _marginal_b(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)


def _marginal_a(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)


def bell_closed_forms(n: int) -> tuple[float, float]:
    """(hull merging cost, hull classical cost) of the N-member orthogonal
    family over the Bell pair: S(A|B) + log2 N and I(A;E) + 2 log2 N."""
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    s_ab = _entropy_bits(rho)
    s_a = _entropy_bits(_marginal_a(rho, 2, 2))
    s_b = _entropy_bits(_marginal_b(rho, 2, 2))
    log_n = log2(n) if n > 1 else 0.0
    return s_ab - s_b + log_n, s_a + s_ab - s_b + 2 * log_n


def _check_example_gap(doc: dict, argv: list[str]) -> list[str]:
    problems = []
    n = int(argv[argv.index("--N") + 1])
    l = int(argv[argv.index("--blocklength") + 1])
    r = doc["report"]
    if r["n"] != n or r["blocklength"] != l:
        problems.append(f"report is for N={r['n']} l={r['blocklength']}, expected N={n} l={l}")
    merging, classical = bell_closed_forms(n)
    got_m = r["hull_merging_cost"]["numeric"]
    got_c = r["hull_classical_cost"]["numeric"]
    if not abs(got_m - merging) <= RATE_TOL:
        problems.append(f"hull merging cost {got_m!r} differs from closed form {merging!r}")
    if not abs(got_c - classical) <= RATE_TOL:
        problems.append(f"hull classical cost {got_c!r} differs from closed form {classical!r}")
    fid = r["protocol"]["worst_case_fidelity"]
    if not fid >= 1 - FIDELITY_TOL:
        problems.append(f"worst-case fidelity {fid!r} below 1")
    if r["passed"] is not True:
        problems.append("report says passed: false")
    return problems


def _schur_closed_form(l: int, x: Fraction, y: Fraction) -> dict[tuple[int, int], float]:
    """Frame probabilities dim(lambda) (xy)^b h_{a-b}(x, y) for d=2."""
    out = {}
    for b in range(l // 2 + 1):
        a = l - b
        dim = comb(l, b) - (comb(l, b - 1) if b else 0)
        h = sum(x**i * y ** (a - b - i) for i in range(a - b + 1))
        out[(a, b)] = float(dim * (x * y) ** b * h)
    return out


def schur_d2_rel_err(doc: dict) -> float:
    """Worst bin-level relative error of a d=2 schur-demo report against
    the closed form, binning frames by the report's own intervals."""
    l = doc["blocklength"]
    x, y = (Fraction(p) for p in SCHUR_SPECTRUM)
    expected: dict[int, float] = {}
    bins = doc["bins"]
    for (a, b), p in _schur_closed_form(l, x, y).items():
        q = np.array([a, b], dtype=float) / l
        q = q[q > 0]
        h = float(-np.sum(q * np.log2(q)))
        for row in bins:
            if h <= row["interval_hi"] + 1e-12:
                expected[row["bin_index"]] = expected.get(row["bin_index"], 0.0) + p
                break
    errs = [
        abs(row["probability"] - expected.get(row["bin_index"], 0.0))
        / max(expected.get(row["bin_index"], 0.0), 1e-300)
        for row in bins
    ]
    return max(errs)


def _check_schur(doc: dict) -> list[str]:
    problems = []
    probs = [row["probability"] for row in doc["bins"]]
    total = sum(probs)
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        problems.append(f"bin probabilities sum to {total!r}")
    if not min(probs) >= -PROB_SUM_TOL:
        problems.append(f"negative bin probability {min(probs)!r}")
    if doc["dim"] == 2:
        err = schur_d2_rel_err(doc)
        if not err <= SCHUR_REL_TOL:
            problems.append(f"d=2 bins off the closed form by relative {err:.3e}")
    return problems


def _check_robustify(doc: dict) -> list[str]:
    if doc["passed"] is not True or doc["report"]["passed"] is not True:
        return ["robustify-check says passed: false"]
    return []


def instrument_rate(kraus_per_outcome: list[list[np.ndarray]], rho: np.ndarray) -> float:
    """sum_j p_j I_c(A>B) of the post-measurement states, with the
    instrument acting on the A factor of a two-qubit-shaped state."""
    d_a = kraus_per_outcome[0][0].shape[1]
    d_b = rho.shape[0] // d_a
    total = 0.0
    for kraus in kraus_per_outcome:
        d_out = kraus[0].shape[0]
        sigma = sum(
            np.kron(k, np.eye(d_b)) @ rho @ np.kron(k, np.eye(d_b)).conj().T for k in kraus
        )
        p = float(np.trace(sigma).real)
        if p <= 1e-12:
            continue
        sigma = sigma / p
        total += p * (_entropy_bits(_marginal_b(sigma, d_out, d_b)) - _entropy_bits(sigma))
    return total


def _check_distill(doc: dict, argv: list[str]) -> list[str]:
    from avqsbench.io import ParseError, instrument_from_dict

    problems = []
    r = doc["report"]
    value = r["value"]
    baseline = r["metadata"]["trivial_baseline"]
    if not baseline - INFIMUM_TOL <= value <= log2(2) + INFIMUM_TOL:
        problems.append(f"value {value!r} outside [{baseline!r}, 1]")
    try:
        instrument = instrument_from_dict(doc["instrument"])
    except ParseError as exc:
        return problems + [f"reported instrument does not parse: {exc}"]
    kraus = [list(m.kraus) for m in instrument.outcomes]
    members = list(distill_set_matrices(int(argv[argv.index("--seed") + 1])).values())
    points = [(f"vertex {i}", m) for i, m in enumerate(members)]
    weights = r["weights"]
    points.append(("reported weights", sum(w * m for w, m in zip(weights, members))))
    for label, rho in points:
        rate = instrument_rate(kraus, rho)
        if not value <= rate + INFIMUM_TOL:
            problems.append(f"value {value!r} exceeds the instrument's rate {rate!r} at {label}")
    return problems


def check(argv: list[str], code: int, stdout: str) -> list[str]:
    """Problems with one invocation's exit code and report."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    try:
        if argv[0] == "example-gap":
            return _check_example_gap(doc, argv)
        if argv[0] == "schur-demo":
            return _check_schur(doc)
        if argv[0] == "robustify-check":
            return _check_robustify(doc)
        if argv[0] == "distill-capacity":
            return _check_distill(doc, argv)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
    return [f"no check for subcommand {argv[0]!r}"]


# ---------------------------------------------------------------------------
# tampered reports: each must be rejected by check()

def _flip_passed(doc):
    doc["report"]["passed"] = False


def _nudge_hull_cost(doc):
    doc["report"]["hull_merging_cost"]["numeric"] += 1e-5


def _drop_fidelity(doc):
    doc["report"]["protocol"]["worst_case_fidelity"] = 1 - 1e-6


def _shift_bin_mass(doc):
    """Move probability between two bins: the sum still holds, so only the
    closed-form (d=2) or the sign check can catch it."""
    bins = doc["bins"]
    top = max(range(len(bins)), key=lambda i: bins[i]["probability"])
    other = (top + 1) % len(bins)
    delta = 1e-3 * bins[other]["probability"] + 1e-9
    bins[top]["probability"] -= delta
    bins[other]["probability"] += delta


def _perturb_bin(doc):
    doc["bins"][0]["probability"] += 1e-6


def _negate_smallest_bin(doc):
    bins = doc["bins"]
    low = min(range(len(bins)), key=lambda i: bins[i]["probability"])
    bins[0]["probability"] += 2 * bins[low]["probability"] + 1e-6
    bins[low]["probability"] = -bins[low]["probability"] - 1e-6


def _robustify_fail(doc):
    doc["passed"] = False


def _raise_value(doc):
    doc["report"]["value"] += 0.05


def _below_baseline(doc):
    doc["report"]["value"] = doc["report"]["metadata"]["trivial_baseline"] - 0.1


TAMPERS = {
    "example-gap": (_flip_passed, _nudge_hull_cost, _drop_fidelity),
    "schur-demo-2": (_shift_bin_mass, _perturb_bin),
    "schur-demo-3": (_perturb_bin, _negate_smallest_bin),
    "robustify-check": (_robustify_fail,),
    "distill-capacity": (_raise_value, _below_baseline),
}


def tamper_kind(argv: list[str]) -> str:
    if argv[0] == "schur-demo":
        return f"schur-demo-{argv[argv.index('--dim') + 1]}"
    return argv[0]


def self_test(argv: list[str], stdout: str) -> list[str]:
    """Names of tampered variants of a passing report that check() accepted."""
    accepted = []
    for tamper in TAMPERS[tamper_kind(argv)]:
        doc = json.loads(stdout)
        tamper(doc)
        if not check(argv, 0, json.dumps(doc)):
            accepted.append(tamper.__name__)
    return accepted
