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
