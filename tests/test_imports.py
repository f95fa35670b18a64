"""Import hygiene: the production modules need nothing outside the standard
library and never load the brute-force oracles or OpenSSL's hashlib, not
even to digest the corpus file names (blake2b comes from CPython's
``_blake2``), the certificate layer does not load the generator, and the
surface layer loads only the graph helpers and the error types."""

import os
import subprocess
import sys
from pathlib import Path

PRODUCTION_MODULES = ("cli", "verify", "connectivity", "structures",
                      "generator", "matching", "model", "surface", "graphs",
                      "srsio", "fixtures", "errors", "_kernels")

PROBE = """
import importlib, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module("o1ppg." + name)
new = set(sys.modules) - before
print(sorted({m.split(".")[0] for m in new}
             - set(sys.stdlib_module_names) - {"o1ppg"}))
print("o1ppg.oracles" in sys.modules)
print("hashlib" in sys.modules or "_hashlib" in sys.modules)
"""


def _run_python(code, *args):
    """Standard output of ``code`` run in a fresh interpreter that imports
    the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True).stdout


def test_production_modules_stay_stdlib_only_and_oracle_free():
    out = _run_python(PROBE, *PRODUCTION_MODULES)
    assert out.split("\n")[:3] == ["[]", "False", "False"]


def test_digest_loads_hashlib_only_when_called():
    # the corpus file names are blake2b digests of canonical keys; taking
    # blake2b from _blake2 instead of hashlib must not change one
    out = _run_python("import sys\n"
                      "from o1ppg.fixtures import fix_k4\n"
                      "from o1ppg.generator import canonical_key, short_key\n"
                      "print(canonical_key(fix_k4()))\n"
                      "print('hashlib' in sys.modules)\n"
                      "print(short_key(fix_k4()))\n")
    assert out.split("\n") == [
        "v4e6:2,4,6,-1,0,5,7,-1,0,7,3,-1,0,3,5,-1", "False",
        "c0f1bba187d0bacf", ""]


def test_generate_does_not_load_hashlib(tmp_path):
    # generate digests every key into a file name, with _blake2's blake2b
    out = _run_python(
        "import sys\n"
        "from o1ppg.cli import main\n"
        "assert main(['generate', '--max-n', '6', '--out', sys.argv[1]]) "
        "== 0\n"
        "print('hashlib' in sys.modules or '_hashlib' in sys.modules)\n",
        str(tmp_path / "c"))
    assert out.split("\n")[-2] == "False"
    assert (tmp_path / "c" / "manifest.tsv").exists()


def test_analyze_and_export_dot_do_not_load_hashlib():
    # neither command prints an instance name, so neither digests a key
    out = _run_python(
        "import sys\n"
        "from o1ppg.cli import main\n"
        "path = sys.argv[1]\n"
        "assert main(['analyze', '--in', path, '--checks', 'extend2']) == 0\n"
        "assert main(['export-dot', '--in', path]) == 0\n"
        "print('hashlib' in sys.modules or '_hashlib' in sys.modules)\n",
        str(Path(__file__).resolve().parents[1]
            / "perfbench" / "corpus-n12" / "q10" / "i01.srs"))
    assert out.split("\n")[0] == "check=extend2 result=true"
    assert out.split("\n")[-2] == "False"


def test_structures_does_not_load_generator():
    out = _run_python("import sys, o1ppg.structures; "
                      "print('o1ppg.generator' in sys.modules)")
    assert out == "False\n"


def test_surface_loads_only_graphs_and_errors():
    out = _run_python("import sys, o1ppg.surface; print(sorted("
                      "m for m in sys.modules if m.startswith('o1ppg.')))")
    assert out == "['o1ppg.errors', 'o1ppg.graphs', 'o1ppg.surface']\n"
