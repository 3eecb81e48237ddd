"""Every demo prints exactly the output pinned here.

Each demo runs in a fresh interpreter with ``PYTHONPATH=src``; its stdout is
compared by SHA-256.  A change that alters a demo's output on purpose must
update the pinned hash.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_tree_geometry.py": "0ff1f0d2194aef86d96febf15923c3bf5079bbfa5358ed8ce19f0c35451d1e01",
    "02_graph_and_export.py": "3ea401f1f28f24356062c6030d4742557b26dd3d10bd1203dcaa49512dfc6162",
    "03_group_dictionary.py": "14813b5b2dcee70b48b937409374d4920313cc0598297ef1994254f74639f3dd",
    "04_random_walks.py": "400ce2fe297172e5dfb14cefe61b9196ce8cec34f87008d0926a6448c4261460",
    "05_martin_kernels.py": "f2fafa110145b048de193c8fae56a159bda37138e2406f22e737018874735d9e",
    "06_dirichlet_problem.py": "af759f34aaa61f6e405a135bfa7fc41e9f0c2cc139fe257f8614a6c43e15098b",
    "07_kernel_convergence.py": "fea4003b632015e05c25beb996041161cc94b9687fb2a42da770b006bcb62241",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
