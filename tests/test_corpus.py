"""The committed byte corpus (scripts/corpus.sha256): a subset of it,
recomputed at one and at two BLAS threads, matches digest for digest."""

import os
import subprocess
import sys

import knrange

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "corpus.py")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(knrange.__file__)))
# Both sides of min(m, n) <= 2, and each kind of output; suite/3x3k2 holds
# the necessity items, failing verifies of the partial transposes. The ranges
# families at d = 2, 9 and 16 take an odd order and the smallest and largest.
SUBSET = (r"^(verify/(2x2k2|2x4k3|3x3k4|3x4k6)/|falsify/(2x3k3|3x3k4|3x4k6|4x4k8)|suite/|range/"
          r"|ranges/[a-z]+-d(2|9|16)-)")


def test_subset_matches_at_one_and_two_blas_threads():
    runs = [subprocess.Popen([sys.executable, SCRIPT, "--check", "--match", SUBSET],
                             env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for threads in ("1", "2")]
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, out + err
        assert out.splitlines()[-1] == "392 of 392 entries match"


def test_write_rewrites_the_whole_corpus():
    run = subprocess.run([sys.executable, SCRIPT, "--write", "--match", "x"],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 2 and "error:" in run.stderr
