"""Benchmark runner: times avqsbench CLI invocations, each in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload {gap,distill-schur} \
        --seed N --seconds S --trace {0,1}

One round runs the workload's invocation list (see inputs.py) once for one
CLI seed, one invocation at a time, each in a new Python process that
imports the package, runs ``avqsbench.cli.main(argv)`` and exits, as a CLI
user would.  Rounds take successive CLI seeds and repeat while the next one
still fits in ``--seconds``.  Every report is checked (see checks.py), and
tampered copies of the first round's reports must be rejected by the same
checks.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json: per
invocation in the list, the mean over rounds, summed over the list.  The
mean weighs every second of the run alike, so it averages over the spells
of slower and faster machine speed that a shared host goes through, where
a median over rounds would jump between them.  Spells that last a whole
run are taken out by a reference: before every invocation a fresh process
imports only the package's dependencies (NumPy, SciPy), fixed work that
only the machine's speed changes, and the times are scaled by
REFERENCE_S / (the run's median reference time), i.e. given in seconds of
a machine on which that import takes REFERENCE_S.  The unscaled times are
printed on the line before the metrics.  ``--trace 1`` runs every
invocation untraced and then traced and prints the per-layer metrics,
medians over rounds.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
BLAS and OpenMP threads are pinned to one in every process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# An invocation that runs longer counts as failed; no workload needs a
# fifth of this, so only a runaway regression reaches it.
TIMEOUT_S = 60.0
# Import-only processes are added until setup_s has this many samples.
SETUP_SAMPLES = 5
# Median reference time (see _reference) on the 2-core Xeon the bounds in
# BENCHMARK.json were set on; times are reported in seconds of a machine
# that runs the reference this fast.
REFERENCE_S = 0.75


def _invoke(argv, traced: bool, workdir: str) -> dict:
    """Run one child process; never raises for a failing invocation."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    with os.fdopen(fd, "w") as fh:
        json.dump({"argv": argv, "trace": traced}, fh)
    result_path = spec_path[:-5] + ".out.json"
    started = time.time()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec_path, result_path],
            cwd=workdir, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {TIMEOUT_S:.0f} s", "wall_s": TIMEOUT_S}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"child exited with {proc.returncode}: {tail[0]}", "wall_s": elapsed}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["imported_at"] - started
    return result


def _reference(workdir: str) -> float | None:
    """Seconds from process start until the package's dependencies are
    imported, in a fresh process that imports nothing of the package;
    None if the process failed."""
    fd, result_path = tempfile.mkstemp(suffix=".ref.json", dir=workdir)
    os.close(fd)
    started = time.time()
    proc = subprocess.run([sys.executable, CHILD, "--reference", result_path],
                          cwd=workdir, timeout=TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)["imported_at"] - started


def _commit() -> str | None:
    """HEAD commit when run from a git checkout, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def _machine(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": {
            k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack")
        },
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": _commit(),
        "sizes": sizes,
    }


def _sum_dicts(dicts):
    out: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0.0) + v
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "avqsbench", "cli.py")):
        sys.stderr.write(f"error: no package source at {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    os.environ.update(THREAD_ENV)  # inherited by every child process
    sys.path[:0] = [HERE, SRC]
    import checks
    import inputs

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        return _run(args, spec, workdir, checks, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def _run(args, spec, workdir, checks, inputs) -> int:
    machine = _machine(args.seed, inputs.SIZES[args.workload])
    attempted = failed = 0
    problems: list[str] = []
    setups: list[float] = []
    refs: list[float | None] = []  # reference times, one per invocation
    seeds: list[int] = []
    digests: list[list[str | None]] = []
    modes = (False, True) if args.trace else (False,)
    rounds: dict[bool, list[dict]] = {traced: [] for traced in modes}

    def record(rnd: dict, argv: list[str], res: dict, traced: bool, first: bool) -> str | None:
        """Account one invocation; returns the sha256 of a report that passed."""
        nonlocal attempted, failed
        attempted += 1
        rnd["wall_s"].append(res["wall_s"])
        if "error" in res:
            failed += 1
            problems.append(f"{argv[0]}: {res['error']}")
            rnd["cpu_s"].append(res["wall_s"])
            rnd["rss_mb"].append(0.0)
            return None
        setups.append(res["setup_s"])
        rnd["cpu_s"].append(res["cpu_s"])
        rnd["rss_mb"].append(res["peak_rss_kib"] / 1024)
        found = checks.check(argv, res["code"], res["stdout"])
        if first and not traced and not found:
            found = [f"tampered report accepted: {name}"
                     for name in checks.self_test(argv, res["stdout"])]
        if found:
            failed += 1
            problems.extend(f"{argv[0]}: {p}" for p in found)
            return None
        if traced:
            rnd["trace"].append(res["trace"])
            rnd["derived"].update(_derived(argv, res["stdout"], checks))
        return hashlib.sha256(res["stdout"].encode()).hexdigest()

    # Each round takes the next CLI seed.  In a traced run every invocation
    # runs untraced and then traced, back to back, so that drift in machine
    # speed cancels out of trace.overhead_s, and the two reports must be
    # byte-identical.
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        seeds.append(inputs.cli_seed(args.seed, len(seeds)))
        rnds = {traced: {"wall_s": [], "cpu_s": [], "rss_mb": [], "trace": [], "derived": {}}
                for traced in modes}
        shas = []
        for argv in inputs.generate(args.workload, seeds[-1], workdir):
            if not args.trace:
                refs.append(_reference(workdir))
            out = [record(rnds[traced], argv, _invoke(argv, traced, workdir), traced, len(seeds) == 1)
                   for traced in modes]
            if None not in out and len(set(out)) > 1:
                failed += 1
                problems.append(f"{argv[0]}: traced report differs from the untraced one")
            shas.append(out[0])
        digests.append(shas)
        for traced, rnd in rnds.items():
            rounds[traced].append(rnd)
        now = time.perf_counter()
        if now - t_start + (now - t0) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        res = _invoke(None, False, workdir)
        if "error" in res:
            problems.append(f"import-only process: {res['error']}")
            break
        setups.append(res["setup_s"])

    def per_invocation(stat, traced: bool, key: str) -> list[float]:
        """``stat`` over rounds of each invocation in the list."""
        rs = rounds[traced]
        return [stat([r[key][i] for r in rs]) for i in range(len(rs[0][key]))]

    wall = sum(per_invocation(statistics.fmean, False, "wall_s"))
    diagnostics: dict = {}
    if args.trace:
        per_round = [{**_sum_dicts(r["trace"]), **r["derived"]} for r in rounds[True]]
        values = {
            m["name"]: statistics.median(d.get(m["name"], 0.0) for d in per_round)
            for m in spec["per_layer"]
        }
        values["trace.wall_s"] = sum(per_invocation(statistics.fmean, True, "wall_s"))
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        metric_specs = spec["per_layer"]
    else:
        ok = [r for r in refs if r is not None]
        if len(ok) < len(refs):
            problems.append("reference process failed")
        ref = statistics.median(ok) if ok else REFERENCE_S
        raw = {
            "wall_s": wall,
            "cpu_s": sum(per_invocation(statistics.fmean, False, "cpu_s")),
            "setup_s": statistics.median(setups) if setups else TIMEOUT_S,
        }
        values = {k: v * REFERENCE_S / ref for k, v in raw.items()}
        values["peak_rss_mb"] = max(per_invocation(statistics.median, False, "rss_mb"))
        diagnostics.update(reference_s=ref, reference_samples=len(refs), unscaled=raw)
        metric_specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}

    print(json.dumps({"machine": machine}, sort_keys=True))
    print(json.dumps({
        "cli_seeds": seeds,
        "round_wall_s": {str(traced).lower(): [sum(r["wall_s"]) for r in rs]
                         for traced, rs in rounds.items()},
        "setup_samples": len(setups),
        **diagnostics,
        "stdout_sha256": digests,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
    }, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:48s} {m['value']:.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _derived(argv, stdout: str, checks) -> dict:
    """Per-layer values read from the report rather than from spans."""
    doc = json.loads(stdout)
    if argv[0] == "distill-capacity":
        return {
            "rates.distill.outer_iterations": doc["report"]["metadata"]["outer_iterations"],
            "rates.distill.value_bits": doc["report"]["value"],
        }
    if argv[0] == "schur-demo" and doc["dim"] == 2:
        return {"schur_weyl.max_rel_err": checks.schur_d2_rel_err(doc)}
    return {}


if __name__ == "__main__":
    sys.exit(main())
