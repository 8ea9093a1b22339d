"""One CLI invocation in a fresh process, as a user would run it.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds ``argv`` (the CLI arguments, or null to only time the import)
and ``trace`` (install the span wrappers after import).  RESULT receives
the wall-clock time at which ``avqsbench.cli`` finished importing, the
invocation's wall and CPU time, peak RSS, exit code, captured
stdout/stderr and, when traced, the per-layer aggregates.  Nothing is
written before the invocation ends.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    if spec_path == "--reference":
        # The package's third-party imports and nothing of the package:
        # fixed work that only the machine's speed changes.
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.optimize  # noqa: F401

        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"imported_at": time.time()}, fh)
        return 0
    import avqsbench.cli as cli

    imported_at = time.time()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["argv"] is None:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"imported_at": imported_at}, fh)
        return 0
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(spec["argv"])
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    result = {
        "imported_at": imported_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
