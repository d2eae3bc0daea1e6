import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knrange
from knrange import checks, classify, cli, ranges
from knrange.checks import counterexample_matrices
from knrange.maps import map_to_payload
from knrange.matcore import (
    BipartiteShape,
    kron,
    matrix_to_payload,
    random_complex,
    random_haar_unitary,
    random_hermitian,
    save_matrix,
)

from conftest import SOLVERS, random_constrained_map, shift3, solver_log


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class TestRangeCommand:
    def test_identity_profile_csv(self, tmp_path, capsys):
        mpath = tmp_path / "eye.json"
        save_matrix(np.eye(4, dtype=complex), mpath)
        out = tmp_path / "profile.csv"
        assert cli.main(["range", str(mpath), "--k", "2", "--out", str(out)]) == 0
        assert "W_2 = [1, 1]" in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_allclose(values[:, 2], 1.0, atol=1e-12)  # boundary_re
        np.testing.assert_allclose(values[:, 3], 0.0, atol=1e-12)  # boundary_im

    def test_hermitian_json_to_stdout_parses(self, tmp_path, capsys):
        mpath = tmp_path / "herm.json"
        save_matrix(random_hermitian(5, 3), mpath)
        args = ["range", str(mpath), "--k", "2", "--format", "json"]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "Hermitian input: W_2 = [" in captured.err
        out = tmp_path / "profile.json"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert captured.out == out.read_text()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("d,k,angles", [(5, 2, 360), (12, 1, 361), (12, 7, 8)])
    def test_hermitian_interval_from_the_profile(self, tmp_path, capsys, d, k, angles):
        """One eigh, for the profile, and no eigvalsh: the interval is the
        profile's least and greatest boundary point, within 1e-12 of
        krange_hermitian."""
        h = random_hermitian(d, d + k)
        mpath = tmp_path / "herm.json"
        save_matrix(h, mpath)
        args = ["range", str(mpath), "--k", str(k), "--angles", str(angles), "--format", "json"]
        with solver_log() as log:
            assert cli.main(args) == 0
        assert log.calls() == {**dict.fromkeys(SOLVERS, 0), "eigh": 1}
        points = ranges.krange_profile(h, k, angles).boundary.real
        lo, hi = points.min(), points.max()
        interval = ranges.krange_hermitian(h, k)
        assert abs(lo - interval.lo) <= 1e-12 and abs(hi - interval.hi) <= 1e-12
        assert f"Hermitian input: W_{k} = [{lo:.12g}, {hi:.12g}]" in capsys.readouterr().err

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

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"dim": 1, "entries": [[1, 0]], "note": "\xe9"}')
        assert cli.main(["range", str(bad), "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
        assert captured.err.count("\n") == 1

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
        phi = random_constrained_map(shape, np.random.default_rng(12))
        mpath = tmp_path / "map.json"
        write_json(mpath, map_to_payload(phi))
        assert cli.main(["verify", str(mpath), "--trials", "6", "--angles", "90"]) == 1

    def test_conflicting_flags(self, tmp_path):
        shape = BipartiteShape(2, 2, 2)
        phi = random_constrained_map(shape, np.random.default_rng(12))
        mpath = tmp_path / "map.json"
        write_json(mpath, map_to_payload(phi))
        assert cli.main(["verify", str(mpath), "--m", "3"]) == 2

    def test_map_file_without_entries_exit_2(self, tmp_path):
        phi = random_constrained_map(BipartiteShape(2, 2, 2), np.random.default_rng(12))
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
        assert cli.main(["verify", str(dpath), "--m", "2", "--n", "2", "--k", "2"]) == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_non_positive_tol_exit_2(self, tmp_path, tol):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        out = tmp_path / "report.json"
        rc = cli.main(["verify", str(dpath), "--m", "2", "--n", "2", "--k", "2",
                       "--tol", tol, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_descriptor_affine_string_exit_2(self, tmp_path):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": "false", "unitary": "identity"})
        out = tmp_path / "report.json"
        assert cli.main(["verify", str(dpath), "--m", "2", "--n", "2", "--k", "2",
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_defaults_are_the_library_constants(self, tmp_path):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        out = tmp_path / "report.json"
        assert cli.main(["verify", str(dpath), "--m", "2", "--n", "2", "--k", "1",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())["verification"]
        assert report["num_angles"] == ranges.DEFAULT_NUM_ANGLES
        assert report["tol"] == ranges.DEFAULT_RTOL
        assert report["trials"] == classify.DEFAULT_TRIALS

    @pytest.mark.parametrize("unitary", [None, np.eye(3)], ids=["no-unitary-key", "wrong-dim"])
    def test_descriptor_unitary_errors_exit_2(self, tmp_path, capsys, unitary):
        descriptor = {"varphi": "id", "affine": False}
        if unitary is not None:
            descriptor["unitary"] = matrix_to_payload(unitary)
        dpath, out = tmp_path / "desc.json", tmp_path / "report.json"
        write_json(dpath, descriptor)
        assert cli.main(["verify", str(dpath), "--m", "2", "--n", "2", "--k", "2",
                         "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "unitary" in lines[0]

    def test_descriptor_needs_shape(self, tmp_path):
        dpath = tmp_path / "desc.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        assert cli.main(["verify", str(dpath)]) == 2

    @pytest.mark.parametrize("flags,missing", [([], "--m, --n, --k"),
                                               (["--m", "2", "--k", "2"], "--n")])
    def test_descriptor_names_missing_shape_flags(self, tmp_path, capsys, flags, missing):
        """A canonical descriptor carries no shape: the one error line names
        the flags it needs, not a library argument that is None."""
        dpath, out = tmp_path / "desc.json", tmp_path / "report.json"
        write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
        assert cli.main(["verify", str(dpath), *flags, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "needs --m, --n and --k" in line
        assert line.endswith(f"missing {missing}")


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


def with_input_files(tmp_path, argv):
    """argv with DESC and MATRIX replaced by the paths of an identity-map
    descriptor file and a 3x3 identity matrix file."""
    dpath, mpath = tmp_path / "desc.json", tmp_path / "m.json"
    write_json(dpath, {"varphi": "id", "affine": False, "unitary": "identity"})
    save_matrix(np.eye(3, dtype=complex), mpath)
    return [{"DESC": str(dpath), "MATRIX": str(mpath)}.get(a, a) for a in argv]


@pytest.mark.parametrize(
    "argv",
    [["verify", "DESC", "--m", "2", "--n", "2", "--k", "2", "--angles", "4"],
     ["verify", "DESC", "--m", "2", "--n", "2", "--k", "2", "--trials", "0"],
     ["suite", "--m", "2", "--n", "2", "--k", "2", "--trials", "0"],
     ["range", "MATRIX", "--k", "1", "--angles", "4"]],
    ids=["verify-angles", "verify-trials", "suite-trials", "range-angles"],
)
def test_bad_run_settings_exit_2_without_output(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(with_input_files(tmp_path, argv) + ["--out", str(out)]) == 2
    assert not out.exists()


HUGE = "1000000000000"
ANGLES_BOUND = f"num_angles must be <= {ranges.MAX_NUM_ANGLES}"
TRIALS_BOUND = f"trials must be <= {classify.MAX_TRIALS}"


@pytest.mark.parametrize(
    "argv,message",
    [(["range", "MATRIX", "--k", "1", "--angles", HUGE], ANGLES_BOUND),
     (["verify", "DESC", "--m", "2", "--n", "2", "--k", "2", "--angles", HUGE],
      ANGLES_BOUND),
     (["verify", "DESC", "--m", "2", "--n", "2", "--k", "2", "--trials", HUGE],
      TRIALS_BOUND),
     (["suite", "--m", "2", "--n", "2", "--k", "2", "--angles", HUGE],
      ANGLES_BOUND),
     (["suite", "--m", "2", "--n", "2", "--k", "2", "--trials", HUGE],
      TRIALS_BOUND)],
    ids=["range-angles", "verify-angles", "verify-trials", "suite-angles", "suite-trials"],
)
def test_oversized_counts_exit_2_naming_the_bound(tmp_path, capsys, argv, message):
    """A count too large to allocate is a usage error, caught before any
    array of that size is requested."""
    out = tmp_path / "out"
    assert cli.main(with_input_files(tmp_path, argv) + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}, got {HUGE}\n"


@pytest.mark.parametrize(
    "argv",
    [["range", "MATRIX", "--k", "1"],
     ["verify", "DESC", "--m", "2", "--n", "2", "--k", "2", "--trials", "2", "--angles", "8"],
     ["suite", "--m", "2", "--n", "2", "--k", "2", "--trials", "2", "--angles", "8"]],
    ids=["range", "verify", "suite"],
)
def test_memory_error_exits_3(tmp_path, capsys, monkeypatch, argv):
    """An allocation that fails is no fault of the input: exit 3, with one
    error line and no output."""
    def allocating(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(ranges, "_rotated_eigs", allocating)
    out = tmp_path / "out"
    assert cli.main(with_input_files(tmp_path, argv) + ["--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_solver_failure_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    """np.linalg.LinAlgError subclasses ValueError, but a solve that does not
    converge is no fault of the input: exit 3, with one error line."""
    def diverging(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, diverging)
    mpath, out = tmp_path / "m.json", tmp_path / "out.csv"
    save_matrix(random_complex(3, np.random.default_rng(2)), mpath)
    assert cli.main(["range", str(mpath), "--k", "1", "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == "error: numerical failure: Eigenvalues did not converge\n"


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    """An exception that is neither a usage error nor a numerical or resource
    failure is a fault of the program, not a failing verdict: exit 3, with one
    error line that names its type and the innermost frame of its traceback,
    and no output."""
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand\nsecond line")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    mpath, out = tmp_path / "m.json", tmp_path / "out.csv"
    save_matrix(random_complex(3, np.random.default_rng(2)), mpath)
    assert cli.main(["range", str(mpath), "--k", "1", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    where = f"{broken.__code__.co_filename}:{broken.__code__.co_firstlineno + 1} in broken"
    assert captured.err == ("error: internal error: TypeError('unsupported operand\\nsecond line')"
                            f" at {where}\n")


def test_plain_value_error_exits_3(tmp_path, capsys, monkeypatch):
    """Only matcore.UsageError is a usage error: a plain ValueError from a
    check that a bug broke is a fault of the program, exit 3 with one error
    line that names its type and where it was raised, and no output."""
    def broken(name, *args):
        raise ValueError(f"{name} check is broken")

    monkeypatch.setattr(ranges, "_check_int", broken)
    mpath, out = tmp_path / "m.json", tmp_path / "out.csv"
    save_matrix(random_complex(3, np.random.default_rng(2)), mpath)
    assert cli.main(["range", str(mpath), "--k", "1", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    where = f"{broken.__code__.co_filename}:{broken.__code__.co_firstlineno + 1} in broken"
    assert captured.err == f"error: internal error: ValueError('k check is broken') at {where}\n"


def test_huge_entries_exit_2_without_warnings(tmp_path, capsys):
    """Entries of 1.7e308 - 1.7e308i are finite, but the support kernel's
    sums would overflow: as_matrix rejects them as input, naming its bound,
    before any arithmetic warns."""
    path = tmp_path / "huge.json"
    write_json(path, {"dim": 3, "entries": [[1.7e308, -1.7e308]] * 9})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["range", str(path), "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: matrix entries must have |Re| and |Im| at most 1e+150, "
                            "got 1.7e+308\n")


@pytest.mark.parametrize("command", ["range", "verify"])
def test_boolean_entries_exit_2_without_output(tmp_path, capsys, command):
    """JSON true/false are not matrix entries, though complex() reads them as 1/0."""
    if command == "range":
        payload = {"dim": 2, "entries": [[True, False], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
        argv = ["--k", "1"]
    else:
        payload = map_to_payload(random_constrained_map(BipartiteShape(2, 2, 2),
                                                         np.random.default_rng(12)))
        payload["entries"][5] = [False, 0.0]
        argv = ["--trials", "2", "--angles", "8"]
    path, out = tmp_path / "input.json", tmp_path / "out"
    write_json(path, payload)
    assert cli.main([command, str(path)] + argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


MAP_2_2_2 = map_to_payload(random_constrained_map(BipartiteShape(2, 2, 2),
                                                  np.random.default_rng(12)))


@pytest.mark.parametrize("command,payload,argv,message", [
    ("verify", matrix_to_payload(np.eye(3)), [],
     "{path}: verify expects a map file (keys m, n, k, dim, entries) or a canonical "
     "descriptor file (keys varphi, affine, unitary), got keys ['dim', 'entries']"),
    ("verify", {key: MAP_2_2_2[key] for key in ("m", "n", "dim")}, [],
     "map payload is missing 'k', 'entries'; it needs 'm', 'n', 'k', 'dim', 'entries'"),
    ("verify", {"varphi": "id", "unitary": "identity"}, ["--m", "2", "--n", "2", "--k", "2"],
     "canonical descriptor is missing 'affine'; it needs 'varphi', 'affine', 'unitary'"),
    ("verify", dict(MAP_2_2_2, entries=MAP_2_2_2["entries"][:7] + [[0.0]]
                    + MAP_2_2_2["entries"][8:]),
     [], "entries[7] must be a [re, im] pair of numbers, got [0.0]"),
    ("range", {"dim": 2, "entries": [[1, 0], [0, 0], ["0", 0], [1, 0]]}, ["--k", "1"],
     "entries[2] must be a [re, im] pair of numbers, got ['0', 0]"),
    ("range", {"dim": 1, "entries": [[10**400, 0]]}, ["--k", "1"],
     "entries[0] is out of the float range: [100000000000000000...0000000000000000000, 0]"),
], ids=["matrix-file-to-verify", "map-missing-keys", "descriptor-missing-key", "map-short-entry",
        "string-entry", "huge-entry"])
def test_malformed_payload_names_the_fault(tmp_path, capsys, command, payload, argv, message):
    """One error line that says what is wrong with the file, exit 2, no output."""
    path = tmp_path / "input.json"
    write_json(path, payload)
    assert cli.main([command, str(path), "--angles", "8"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize("command,argv", [("range", ["--k", "1"]),
                                          ("verify", ["--m", "2", "--n", "2", "--k", "2"])])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command, argv):
    """A file nested deeper than the JSON parser can recurse: one error line
    that names the nesting, exit 2, no output and no traceback."""
    path, out = tmp_path / "deep.json", tmp_path / "out"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main([command, str(path), "--out", str(out)] + argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON is nested too deeply to parse\n"


def test_suite_default_trials_is_the_library_constant():
    suite = cli._build_parser().parse_args(["suite", "--m", "2", "--n", "2", "--k", "2"])
    assert suite.trials == checks.DEFAULT_SUITE_TRIALS
    assert (suite.angles, suite.tol) == (ranges.DEFAULT_NUM_ANGLES, ranges.DEFAULT_RTOL)


def test_render_counterexample_script(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "scripts", "render_counterexample.py")
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "render"
    result = subprocess.run(
        [sys.executable, script, "--m", "3", "--n", "3", "--k", "1", "--angles", "8",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(os.listdir(out)) == ["ab_k1.csv", "ab_k1.svg", "abt_k1.csv", "abt_k1.svg"]
    assert "k=1: support gap at angle 0" in result.stdout
    a, b = counterexample_matrices(3, 3)
    for label, product in (("ab", kron(a, b)), ("abt", kron(a, b.T))):
        profile = ranges.krange_profile(product, 1, 8)
        assert (out / f"{label}_k1.csv").read_text() == ranges.profile_csv(profile)
        assert (out / f"{label}_k1.svg").read_text() == ranges.profile_svg(profile)


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
    """At (3, 3, 2) the spectra decide the valid forms' verifies and the grid
    the partial transposes', so both paths are byte-checked."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(knrange.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "knrange.cli", "suite", "--m", "3", "--n", "3", "--k", "2",
             "--trials", "6", "--angles", "90", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs.append((out / "suite_summary.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_bytes_independent_of_blas_threads(tmp_path):
    """The classification's choi_gap_bounds included: at (mn)^4 >= 20736 Choi
    entries a norm taken by a threaded BLAS dot would move their last bits."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(knrange.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for (m, n, k), tag, affine in [((3, 4, 6), "t", False), ((4, 4, 8), "id", True)]:
        dpath = tmp_path / f"{tag}.json"
        write_json(dpath, {"varphi": tag, "affine": affine,
                           "unitary": matrix_to_payload(random_haar_unitary(m * n, 5))})
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{tag}-threads{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "knrange.cli", "verify", str(dpath), "--m", str(m),
                 "--n", str(n), "--k", str(k), "--trials", "2", "--angles", "8", "--out", str(out)],
                env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True,
                timeout=300,
            )
            outputs.append(out.read_bytes())
        assert json.loads(outputs[0])["classification"]["verdict"] == "classified"
        assert outputs[0] == outputs[1], (m, n, k, tag, affine)


def run_cli_at_blas_threads(commands, threads):
    """Run each knrange argument list through cli.main in one child process
    with OPENBLAS_NUM_THREADS=threads; every command must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(knrange.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import json, sys\nfrom knrange.cli import main\n"
              "sys.exit(max(main(args) for args in json.loads(sys.argv[1])))")
    subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                   env=env, check=True, capture_output=True, timeout=300)


def test_range_bytes_independent_of_blas_threads(tmp_path):
    """Profiles on both grids: a Hermitian matrix's two boundary frames and a
    Ginibre matrix's per-angle frames each go through one stacked matmul."""
    for name, a in (("herm", random_hermitian(12, 7)), ("ginibre", random_complex(12, 7))):
        save_matrix(a, tmp_path / f"{name}.json")
    outputs = {}
    for threads in ("1", "2"):
        commands, paths = [], []
        for name in ("herm", "ginibre"):
            for angles in ("360", "361"):
                for fmt in ("csv", "json"):
                    out = tmp_path / f"{name}-{angles}-threads{threads}.{fmt}"
                    commands.append(["range", str(tmp_path / f"{name}.json"), "--k", "5",
                                     "--angles", angles, "--format", fmt, "--out", str(out)])
                    paths.append(out)
        run_cli_at_blas_threads(commands, threads)
        outputs[threads] = [path.read_bytes() for path in paths]
    assert len(outputs["1"]) == 8
    assert outputs["1"] == outputs["2"]


def test_default_suite_bytes_independent_of_blas_threads(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_cli_at_blas_threads([["suite", "--m", "3", "--n", "3", "--k", "2", "--out", str(out)]], threads)
        outputs.append((out / "suite_summary.json").read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Fuzz of the three commands' input files and flags, in process.
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=4),
    max_leaves=8)
# Valid files that the fuzz mutates: a matrix for range; a map and a
# descriptor for verify.
VALID_FILES = {
    "range": [matrix_to_payload(np.eye(3))],
    "verify": [map_to_payload(random_constrained_map(BipartiteShape(2, 2, 2),
                                                     np.random.default_rng(5))),
               {"varphi": "t", "affine": False, "unitary": "identity"}],
}
# Per flag, valid values that keep a run cheap, and malformed ones; None
# leaves the flag out. Leaving out --angles or --trials would run the
# default grid or trial count, which is valid but slow.
COUNTS = ["0", "-1", "x", "1.5", "nan"]
FLAGS = {
    "--m": ([None, "2"], ["3"] + COUNTS),
    "--n": ([None, "2"], ["3"] + COUNTS),
    "--k": ([None, "1", "2"], ["4", "9"] + COUNTS),
    "--angles": (["8", "9"], COUNTS),
    "--trials": (["1", "2"], COUNTS),
    "--tol": ([None, "1e-8", "0.5"], ["0", "-1e-8", "nan", "inf", "-inf", "x"]),
    "--seed": ([None, "0", str(2**64)], ["-1", "x", "1.5"]),
    "--format": ([None, "csv", "svg", "json"], ["pdf", ""]),
}
COMMAND_FLAGS = {
    "range": ["--k", "--angles", "--format"],
    "verify": ["--m", "--n", "--k", "--angles", "--trials", "--tol", "--seed"],
    "suite": ["--m", "--n", "--k", "--angles", "--trials", "--tol", "--seed"],
}


@st.composite
def file_bytes(draw, command):
    """A valid file of the command, mutated: a key dropped, a value or one
    entry replaced by a JSON value (bools included); or any JSON value; or a
    valid file truncated, or with a byte that is not UTF-8 put in."""
    base = draw(st.sampled_from(VALID_FILES[command]))
    kind = draw(st.sampled_from(["drop", "replace", "entry", "value", "truncate", "not-utf8"]))
    payload = json.loads(json.dumps(base))
    if kind == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif kind == "replace":
        payload[draw(st.sampled_from(sorted(payload)))] = draw(JSON_VALUES)
    elif kind == "entry" and "entries" in payload:
        payload["entries"][draw(st.integers(0, len(payload["entries"]) - 1))] = draw(JSON_VALUES)
    elif kind == "value":
        payload = draw(JSON_VALUES)
    data = json.dumps(payload).encode()
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "not-utf8":
        cut = draw(st.integers(0, len(data)))
        return data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[cut:]
    return data


@st.composite
def cli_runs(draw):
    """(command, input file bytes or None, flags): a valid file or a
    malformed one, and at most two malformed flags among valid ones."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    data = None
    if command != "suite":
        valid = json.dumps(draw(st.sampled_from(VALID_FILES[command]))).encode()
        data = draw(st.sampled_from([valid]) | file_bytes(command))
    bad = draw(st.sets(st.sampled_from(COMMAND_FLAGS[command]), max_size=2))
    flags = []
    for flag in COMMAND_FLAGS[command]:
        valid, malformed = FLAGS[flag]
        if command == "suite" and flag in ("--m", "--n", "--k"):
            valid = ["2"]  # a suite needs its shape, and a 3x3 one takes seconds
        value = draw(st.sampled_from(malformed if flag in bad else valid))
        if value is not None:
            flags += [flag, value]
    return command, data, flags


def run_cli(tmp, command, data, flags):
    """Exit code, stdout and stderr of cli.main, and whether it wrote output."""
    out = os.path.join(tmp, "out")
    argv = [command]
    if data is not None:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(data)
        argv.append(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + flags + ["--out", out])
    return code, stdout.getvalue(), stderr.getvalue(), os.path.exists(out)


@settings(max_examples=200, deadline=None)
@given(run=cli_runs())
@example(run=("suite", None, ["--m", "2", "--n", "2", "--k", "2", "--angles", "8",
                              "--trials", "1", "--seed", "-1"]))
@example(run=("verify", json.dumps(VALID_FILES["verify"][1]).encode(),
              ["--m", "2", "--n", "2", "--k", "2", "--angles", "8", "--seed", "-1"]))
@example(run=("range", json.dumps(matrix_to_payload(np.eye(3))).encode(),
              ["--k", "1", "--angles", str(ranges.MAX_NUM_ANGLES + 1)]))
@example(run=("verify", json.dumps(VALID_FILES["verify"][1]).encode(),
              ["--m", "2", "--n", "2", "--k", "2", "--trials", str(classify.MAX_TRIALS + 1)]))
@example(run=("suite", None, ["--m", "2", "--n", "2", "--k", "2", "--angles",
                              str(ranges.MAX_NUM_ANGLES + 1), "--trials", "1"]))
def test_fuzzed_files_and_flags_exit_0_1_or_2(run):
    """Every run ends in exit 0, 1 or 2 with no traceback; an exit 2 prints
    exactly one error: line and no report."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, wrote = run_cli(tmp, *run)
    assert "Traceback" not in err
    assert code in (0, 1, 2), err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert out == "" and not wrote
