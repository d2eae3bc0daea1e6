import functools
import importlib.util
import os
import re
import subprocess
import sys

import knrange
import knrange.cli  # bench/ reads knrange.cli.main
from knrange import checks, classify

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


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


def test_benchmark_names_resolve():
    """Every knrange name the benchmark reaches by name: each TRACED function,
    which bench/tracing.py looks up with getattr and no default, and each
    knr./knrange. reference in the workload, worker and traced-CLI scripts.
    Only a traced run reaches some of them, so a rename in src must fail
    here. tracing.py imports only the standard library, so it is loaded
    from its file without installing anything."""
    path = os.path.join(BENCH, "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [f"{layer}.{func}" for layer, funcs in tracing.TRACED.items() for func in funcs]
    for script in ("workloads.py", "worker.py", "cli_child.py"):
        with open(os.path.join(BENCH, script), encoding="utf-8") as fh:
            found = re.findall(r"\bknr(?:ange)?\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", fh.read())
        assert found, script  # the scan still sees the script's references
        names += found
    missing = []
    for name in dict.fromkeys(names):
        try:
            functools.reduce(getattr, name.split("."), knrange)
        except AttributeError:
            missing.append(name)
    assert not missing, missing
