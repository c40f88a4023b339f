"""Every demo runs to completion and prints exactly its recorded output.

The demos are deterministic, so each one's stdout is pinned by its sha256
(numpy 2.4, x86-64).  Each runs in its own interpreter, as a user would
run it, with ``src`` on the path.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "accelerated_quadratics": "352cbb8ccb7cdc92c6f44c84d657df529d5dec3d79d7cf515e26e9b49bf7b9db",
    "decentralized_consensus": "03975bc93433c919b5474b8b2e5ce962364b7d81d7c0342fa7b63afb0e741727",
    "penalty_constrained": "e2f9dca46b9ca0158b5e3c3a0814b4844fddc901210b8eacf3e3d969e005728f",
    "primal_dual_methods": "42d9f6617f34c3847558358676770d277618db019d81f1423c2eca31e8173fbb",
    "wasserstein_barycenter": "906dc133952a759661af6bc3db1d99d1b39a7e5d464294c8a0c1dac33a0bcc18",
}


def test_every_demo_is_listed():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_prints_its_recorded_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[name]
