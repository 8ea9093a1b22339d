import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_EXAMPLE_GAP = """
import contextlib, io, json, sys
from tracer import Tracer
from avqsbench.cli import main

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["example-gap", "--N", "2", "--blocklength", "2"])
print(json.dumps({"code": code, "summary": tracer.summary()}))
"""


def test_traced_example_gap_runs():
    # the benchmark's tracer looks package names up by string (methods it
    # wraps, the character cache it reads): renaming or deleting one of
    # them must fail here rather than in a traced benchmark run
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run(
        [sys.executable, "-c", TRACED_EXAMPLE_GAP], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["code"] == 0
    summary = result["summary"]
    assert summary
    assert summary["channels.compose_instrument_with_protocols.calls"] == 1
    assert summary["rates.word_fidelities.calls"] == 1
