import os
import subprocess
import sys

import knrange
from knrange import checks, classify


def test_every_export_resolves():
    for name in knrange.__all__:
        getattr(knrange, name)  # AttributeError names a stale export


def test_star_import():
    namespace: dict = {}
    exec("from knrange import *", namespace)
    assert set(knrange.__all__) <= namespace.keys()


def test_counterexample_matrices_has_one_definition():
    assert knrange.counterexample_matrices is classify.counterexample_matrices
    assert checks.counterexample_matrices is classify.counterexample_matrices


def test_traced_benchmark_installs():
    """bench/tracing.py wraps knrange functions by name, and bench/workloads.py
    reads a few more: a rename in src must fail here, not in the benchmark.
    Run in a child process, since install() rebinds the package's functions."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import tracing\n"
        "tracing.Tracer().install()\n"
        "from knrange import checks, maps, matcore\n"
        "for module, name in [(checks, '_valid_forms'), (maps, 'VARPHI_TAGS'),\n"
        "                     (maps, 'map_to_payload'), (maps, 'descriptor_to_payload'),\n"
        "                     (matcore, 'save_matrix')]:\n"
        "    getattr(module, name)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, os.path.join(root, "src"), os.path.join(root, "bench")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
