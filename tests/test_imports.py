"""Import hygiene: the production modules need nothing outside the standard
library and never load the brute-force oracles."""

import os
import subprocess
import sys
from pathlib import Path

PRODUCTION_MODULES = ("cli", "verify", "connectivity", "structures",
                      "generator", "matching", "model", "surface", "graphs",
                      "srsio", "fixtures")

PROBE = """
import importlib, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module("o1ppg." + name)
new = set(sys.modules) - before
print(sorted({m.split(".")[0] for m in new}
             - set(sys.stdlib_module_names) - {"o1ppg"}))
print("o1ppg.oracles" in sys.modules)
"""


def test_production_modules_stay_stdlib_only_and_oracle_free():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", PROBE, *PRODUCTION_MODULES],
                         env=env, capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "False"]
