"""Seeded inputs and invocation lists for the two benchmark workloads.

Every input file is written through ``avqsbench.io``, so the program only
ever sees JSON it could have been handed by a user.  The same seed always
produces byte-identical files and the same argument lists.
"""

from __future__ import annotations

import os

import numpy as np

# Werner weight of the fixed distillation member, and the marginal spectrum of
# the d=2 symmetry state that the closed-form check in checks.py relies on.
WERNER_WEIGHT = 0.9
SCHUR_SPECTRUM = (0.9, 0.1)


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_full_rank(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def werner(weight: float) -> np.ndarray:
    """weight |Phi+><Phi+| + (1 - weight) I/4 on two qubits."""
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1 / np.sqrt(2)
    return weight * np.outer(phi, phi.conj()) + (1 - weight) * np.eye(4) / 4


def distill_set_matrices(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    return {"werner": werner(WERNER_WEIGHT), "random": _random_full_rank(4, rng)}


def schur_pure_matrix(seed: int) -> np.ndarray:
    """Pure two-qubit state whose A marginal has spectrum SCHUR_SPECTRUM,
    in seeded local bases."""
    rng = np.random.default_rng([seed, 2])
    ua, ub = _haar_unitary(2, rng), _haar_unitary(2, rng)
    coeffs = np.sqrt(np.asarray(SCHUR_SPECTRUM))
    psi = sum(c * np.kron(ua[:, i], ub[:, i]) for i, c in enumerate(coeffs))
    return np.outer(psi, psi.conj())


def qutrit_pair_matrix(seed: int) -> np.ndarray:
    return _random_full_rank(9, np.random.default_rng([seed, 3]))


# What each workload's invocations compute on, recorded with every run.
SIZES = {
    "gap": {
        "hull": {"N": 6, "l": 1, "dims": [12, 2], "restarts": 8},
        "merge": {"N": 2, "l": 3, "dims": [4, 2], "word_state_dim": 512, "restarts": 8},
    },
    "distill-schur": {
        "distill": {"members": 2, "dims": [2, 2], "k": 1, "outcomes": 2, "restarts": 2},
        "schur": [{"d": 2, "l": 30, "eta": 0.1}, {"d": 3, "l": 20, "eta": 0.1}],
        "robustify": {"members": 2, "l": 4, "word_state_dim": 256},
    },
}


def cli_seed(seed: int, round_index: int) -> int:
    """CLI seed of one round.  Rounds of a run use distinct CLI seeds, so a
    run's figure averages over the work that Nelder-Mead restarts and the
    seeded inputs make differ between seeds (hull objective evaluations
    vary by about a tenth from one seed to the next)."""
    return 1000 * seed + round_index


def generate(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """Write one round's input files under ``workdir`` and return its CLI
    argument lists, in order.  ``seed`` is both the input seed and the CLI
    ``--seed``."""
    from avqsbench import io
    from avqsbench.linalg import state
    from avqsbench.rates import StateSet

    workdir = os.path.join(workdir, str(seed))
    os.makedirs(workdir, exist_ok=True)

    def write_set(name: str, mats: dict[str, np.ndarray]) -> str:
        xs = StateSet(
            tuple(state(m, (2, 2), ("A", "B")) for m in mats.values()), tuple(mats)
        )
        path = os.path.join(workdir, name)
        io.save_json(path, io.state_set_to_dict(xs))
        return path

    def write_state(name: str, mat: np.ndarray, dims: tuple[int, int]) -> str:
        path = os.path.join(workdir, name)
        io.save_json(path, io.state_to_dict(state(mat, dims, ("A", "B"))))
        return path

    s = ["--seed", str(seed)]
    if workload == "gap":
        # hull: Nelder-Mead over a 6-member hull of 24x24 states (optim);
        # merge: merging_fidelity on 512x512 word states (channels, linalg).
        return [
            ["example-gap", "--N", "6", "--blocklength", "1", "--base", "builtin:bell", *s],
            ["example-gap", "--N", "2", "--blocklength", "3", "--base", "builtin:bell", *s],
        ]
    if workload == "distill-schur":
        dset = write_set("distill_set.json", distill_set_matrices(seed))
        pure = write_state("schur_d2.json", schur_pure_matrix(seed), (2, 2))
        qutrit = write_state("schur_d3.json", qutrit_pair_matrix(seed), (3, 3))
        fmt = ["--format", "json"]
        return [
            ["distill-capacity", "--set", dset, "--k", "1", "--outcomes", "2",
             "--restarts", "2", *s],
            ["schur-demo", "--dim", "2", "--blocklength", "30", "--eta", "0.1",
             "--state", pure, *fmt, *s],
            ["schur-demo", "--dim", "3", "--blocklength", "20", "--eta", "0.1",
             "--state", qutrit, *fmt, *s],
            ["robustify-check", "--set", dset, "--blocklength", "4", *s],
        ]
    raise ValueError(f"unknown workload {workload!r}")
