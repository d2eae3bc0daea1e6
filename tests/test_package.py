import ast
import functools
import importlib.util
import os
import re
import subprocess
import sys

import knrange
import knrange.cli  # bench/ reads knrange.cli.main
from knrange import checks, classify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
# Names imported with no use in their module: the future import.
UNUSED_IMPORTS_ALLOWED = {"annotations"}


def test_every_export_resolves():
    for name in knrange.__all__:
        getattr(knrange, name)  # AttributeError names a stale export


def _python_files(*dirs):
    for top in dirs:
        for path, _, files in os.walk(top):
            yield from (os.path.join(path, f) for f in sorted(files) if f.endswith(".py"))


def test_every_export_is_reached():
    """Every name in knrange.__all__ is read by a module of src/knrange other
    than __init__, by the acceptance tests, or by a file under bench/ or
    scripts/: as a name, an attribute, an imported name, or a string that
    getattr looks up, as bench/tracing.py does."""
    src = os.path.join(ROOT, "src", "knrange")
    paths = [path for path in _python_files(src) if os.path.basename(path) != "__init__.py"]
    paths += [os.path.join(ROOT, "tests", "test_acceptance.py")]
    paths += _python_files(BENCH, os.path.join(ROOT, "scripts"))
    read = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.asname or node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    assert len(paths) > 10, paths  # the scan still sees the modules and scripts
    unreached = sorted(set(knrange.__all__) - read)
    assert not unreached, unreached


def test_star_import():
    namespace: dict = {}
    exec("from knrange import *", namespace)
    assert set(knrange.__all__) <= namespace.keys()


def test_counterexample_matrices_has_one_definition():
    assert knrange.counterexample_matrices is classify.counterexample_matrices
    assert checks.counterexample_matrices is classify.counterexample_matrices


def test_traced_benchmark_installs():
    """bench/tracing.py's install() wraps the traced knrange functions in
    place: it must run against the package as it is (the names it and the
    workloads reach are checked by test_benchmark_names_resolve). Run in a
    child process, since install() rebinds the package's functions."""
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import tracing\n"
        "tracing.Tracer().install()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "src"), BENCH],
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


def test_src_imports_are_used():
    """Every name that a module of src/knrange imports with `from ... import`
    is read in that module, but for UNUSED_IMPORTS_ALLOWED. __init__ only
    re-exports, so it is not scanned."""
    src = os.path.join(ROOT, "src", "knrange")
    imported, unused = 0, []
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        with open(os.path.join(src, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                imported += 1
                if name not in used and not {name, f"{filename[:-3]}.{name}"} & UNUSED_IMPORTS_ALLOWED:
                    unused.append(f"{filename}: {name}")
    assert imported, src  # the scan still sees the modules' imports
    assert not unused, unused
