import json
import os
import subprocess
import sys

import numpy as np
import pytest

import knrange
from knrange import classify, cli
from knrange.classify import _random_constrained_map
from knrange.checks import counterexample_matrices
from knrange.maps import map_to_payload
from knrange.matcore import BipartiteShape, kron, save_matrix

from conftest import shift3


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class TestRangeCommand:
    def test_identity_profile_csv(self, tmp_path, capsys):
        mpath = tmp_path / "eye.json"
        save_matrix(np.eye(4, dtype=complex), mpath)
        out = tmp_path / "profile.csv"
        assert cli.main(["range", str(mpath), "--k", "2", "--out", str(out)]) == 0
        assert "W_2 = [1, 1]" in capsys.readouterr().out
        rows = out.read_text().splitlines()[1:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_allclose(values[:, 2], 1.0, atol=1e-12)  # boundary_re
        np.testing.assert_allclose(values[:, 3], 0.0, atol=1e-12)  # boundary_im

    def test_counterexample_product_max_support(self, tmp_path):
        x = shift3()
        mpath = tmp_path / "ab.json"
        save_matrix(kron(x, x), mpath)
        out = tmp_path / "profile.csv"
        assert cli.main(["range", str(mpath), "--k", "1", "--out", str(out)]) == 0
        support = [float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
        assert max(support) == pytest.approx(4.52769256906871, abs=1e-10)

    def test_svg_output(self, tmp_path):
        mpath = tmp_path / "m.json"
        save_matrix(np.diag([1j, -1j, 1.0]), mpath)
        out = tmp_path / "range.svg"
        assert cli.main(["range", str(mpath), "--k", "1", "--format", "svg", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_json_format(self, tmp_path):
        mpath = tmp_path / "m.json"
        save_matrix(np.eye(3, dtype=complex), mpath)
        out = tmp_path / "profile.json"
        assert cli.main(["range", str(mpath), "--k", "1", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 1 and len(payload["support"]) == 360

    def test_missing_file(self, tmp_path):
        assert cli.main(["range", str(tmp_path / "nope.json"), "--k", "1"]) == 2

    def test_bad_k(self, tmp_path):
        mpath = tmp_path / "m.json"
        save_matrix(np.eye(3, dtype=complex), mpath)
        assert cli.main(["range", str(mpath), "--k", "3"]) == 2

    def test_unparsable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert cli.main(["range", str(bad), "--k", "1"]) == 2

    def test_wrong_payload_shape(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        assert cli.main(["range", str(bad), "--k", "1"]) == 2


class TestVerifyCommand:
    def test_identity_descriptor_classifies(self, tmp_path):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        out = tmp_path / "report.json"
        rc = cli.main(
            ["verify", str(dpath), "--m", "2", "--n", "2", "--k", "2",
             "--trials", "8", "--angles", "90", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["verification"]["verdict"] == "pass"
        assert report["classification"]["verdict"] == "classified"

    def test_partial_transpose_descriptor_fails_with_witness(self, tmp_path):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "pt_right", "affine": False, "unitary": "identity"})
        out = tmp_path / "report.json"
        rc = cli.main(
            ["verify", str(dpath), "--m", "3", "--n", "3", "--k", "2",
             "--trials", "5", "--angles", "90", "--out", str(out)]
        )
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["verification"]["verdict"] == "fail"
        a, _ = counterexample_matrices(3, 3)
        witness_a = report["verification"]["witnesses"][0]["a"]
        assert witness_a["dim"] == 3
        assert witness_a["entries"][1] == [3.0, 0.0]  # A[0,1] = 3

    def test_random_map_file_fails(self, tmp_path):
        shape = BipartiteShape(2, 2, 2)
        phi = _random_constrained_map(shape, np.random.default_rng(12))
        mpath = tmp_path / "map.json"
        write_json(mpath, map_to_payload(phi))
        assert cli.main(["verify", str(mpath), "--trials", "6", "--angles", "90"]) == 1

    def test_conflicting_flags(self, tmp_path):
        shape = BipartiteShape(2, 2, 2)
        phi = _random_constrained_map(shape, np.random.default_rng(12))
        mpath = tmp_path / "map.json"
        write_json(mpath, map_to_payload(phi))
        assert cli.main(["verify", str(mpath), "--m", "3"]) == 2

    def test_map_file_without_entries_exit_2(self, tmp_path):
        phi = _random_constrained_map(BipartiteShape(2, 2, 2), np.random.default_rng(12))
        payload = map_to_payload(phi)
        del payload["entries"]
        mpath = tmp_path / "map.json"
        write_json(mpath, payload)
        assert cli.main(["verify", str(mpath), "--trials", "2", "--angles", "8"]) == 2

    def test_map_file_not_an_object_exit_2(self, tmp_path):
        mpath = tmp_path / "map.json"
        mpath.write_text("5")
        assert cli.main(["verify", str(mpath)]) == 2

    def test_library_errors_are_not_usage_errors(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(classify, "verify_preserver", broken)
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        with pytest.raises(KeyError):
            cli.main(["verify", str(dpath), "--m", "2", "--n", "2", "--k", "2"])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_non_positive_tol_exit_2(self, tmp_path, tol):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        out = tmp_path / "report.json"
        rc = cli.main(["verify", str(dpath), "--m", "2", "--n", "2", "--k", "2",
                       "--tol", tol, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_descriptor_needs_shape(self, tmp_path):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        assert cli.main(["verify", str(dpath)]) == 2


class TestSuiteCommand:
    def test_small_shape_passes(self, tmp_path, capsys):
        rc = cli.main(
            ["suite", "--m", "2", "--n", "2", "--k", "2",
             "--trials", "6", "--angles", "90", "--out", str(tmp_path)]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "suite_summary.json").read_text())
        assert all(item["pass"] for item in summary)
        assert not (tmp_path / "counterexample_a.json").exists()
        assert "[PASS]" in capsys.readouterr().out

    def test_3x3_writes_counterexample(self, tmp_path):
        rc = cli.main(
            ["suite", "--m", "3", "--n", "3", "--k", "2",
             "--trials", "6", "--angles", "90", "--out", str(tmp_path)]
        )
        assert rc == 0
        a, _ = counterexample_matrices(3, 3)
        from knrange.matcore import load_matrix

        np.testing.assert_array_equal(load_matrix(tmp_path / "counterexample_a.json"), a)

    def test_invalid_k_exit_2(self):
        assert cli.main(["suite", "--m", "2", "--n", "2", "--k", "5"]) == 2

    def test_missing_subcommand_exit_2(self):
        assert cli.main([]) == 2


def test_flags_are_deterministic(tmp_path):
    dpath = tmp_path / "desc.json"
    write_json(dpath, {"varphi": "t", "affine": False, "unitary": "identity"})
    args = ["verify", str(dpath), "--m", "2", "--n", "2", "--k", "1",
            "--trials", "6", "--angles", "90", "--seed", "9"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_suite_bytes_independent_of_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(knrange.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "knrange.cli", "suite", "--m", "2", "--n", "3", "--k", "3",
             "--trials", "6", "--angles", "90", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs.append((out / "suite_summary.json").read_bytes())
    assert outputs[0] == outputs[1]
