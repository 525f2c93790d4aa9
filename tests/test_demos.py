"""Every demo script runs to completion against the package under test."""

import glob
import os
import subprocess
import sys

import pytest

import gltnet

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script):
    # import the same gltnet the tests use, so a renamed or removed public
    # name fails here rather than only when someone runs the demo
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gltnet.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
