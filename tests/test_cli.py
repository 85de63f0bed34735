"""Command-line subcommands: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import penrosenet
from penrosenet import cli, discrepancy
from penrosenet.cli import main
from penrosenet.net import SEPARATION, Net, extract_net
from penrosenet.tiling import (
    HALF_KITE,
    Patch,
    SubstitutionRule,
    TileCensus,
    census,
    load_patch,
    save_patch,
    substitution_counts,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_two_rounds_eight_tiles(self, tmp_path, capsys):
        out = str(tmp_path / "p.txt")
        code, stdout, _ = run(capsys, "generate", "--seed", "half-kite",
                              "--rounds", "2", "--out", out)
        assert code == 0
        assert "5 half-kites + 3 half-darts = 8 tiles" in stdout
        patch = load_patch(out)
        assert census(patch) == TileCensus(5, 3)
        assert patch.scale_exp == 0

    def test_zero_rounds_single_tile(self, tmp_path, capsys):
        out = str(tmp_path / "p.txt")
        code, stdout, _ = run(capsys, "generate", "--rounds", "0", "--out", out)
        assert code == 0
        assert "= 1 tiles" in stdout
        assert len(load_patch(out)) == 1

    def test_census_line_matches_recursion(self, tmp_path, capsys):
        out = str(tmp_path / "p.txt")
        code, stdout, _ = run(capsys, "generate", "--seed", "half-dart",
                              "--rounds", "5", "--out", out)
        assert code == 0
        expected = substitution_counts(TileCensus(0, 1), 5)
        assert f"{expected.kites} half-kites + {expected.darts} half-darts" in stdout

    def test_cap_exceeded_exit_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "--rounds", "30",
                              "--cap", "100", "--out", str(tmp_path / "x.txt"))
        assert code == 2
        assert "cap" in stderr

    def test_census_mismatch_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("penrosenet.cli.substitution_counts",
                            lambda base, rounds: TileCensus(0, 0))
        out = tmp_path / "p.txt"
        code, stdout, _ = run(capsys, "generate", "--rounds", "2", "--out", str(out))
        assert code == 1
        assert "FAILED: census 5 half-kites + 3 half-darts" in stdout
        assert not out.exists()

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PENROSENET_OUT", str(tmp_path))
        code, stdout, _ = run(capsys, "generate", "--rounds", "1")
        assert code == 0
        assert (tmp_path / "patch.txt").exists()


class TestAnalyze:
    def test_reruns_byte_identical(self, tmp_path, capsys):
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        code1, _, _ = run(capsys, "analyze", "--i-min", "2", "--i-max", "3", "--out", d1)
        code2, _, _ = run(capsys, "analyze", "--i-min", "2", "--i-max", "3", "--out", d2)
        assert code1 == 0 and code2 == 0
        for name in ("report.csv", "report.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_report_contents(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        code, stdout, _ = run(capsys, "analyze", "--i-min", "2", "--i-max", "4", "--out", out)
        assert code == 0
        lines = (tmp_path / "rep" / "report.csv").read_text().splitlines()
        assert lines[0] == "i,statistic,value"
        assert len(lines) == 1 + 3 * 17
        doc = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert [row["i"] for row in doc["rows"]] == [2, 3, 4]
        assert all(row["E_rho"] >= 1.0 for row in doc["rows"])
        # prefix property of the log sum column
        sums = [row["partial_log_sum"] for row in doc["rows"]]
        increments = [row["E_rho"] - 1.0 for row in doc["rows"]]
        assert sums[1] == pytest.approx(sums[0] + increments[1], rel=1e-9)
        assert "exact:" in stdout and "FAIL" not in stdout

    def test_format_selects_single_file(self, tmp_path, capsys):
        out = str(tmp_path / "csvonly")
        code, _, _ = run(capsys, "analyze", "--i-min", "2", "--i-max", "2",
                         "--out", out, "--format", "csv")
        assert code == 0
        assert (tmp_path / "csvonly" / "report.csv").exists()
        assert not (tmp_path / "csvonly" / "report.json").exists()

    def test_saved_patch_with_window(self, tmp_path, capsys):
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "6", "--out", patch_file)
        out = str(tmp_path / "rep")
        # window inside the seed wedge (apex at origin, spanning 0..36 deg)
        code, stdout, _ = run(capsys, "analyze", "--patch", patch_file,
                              "--window", "8", "1", "4",
                              "--i-min", "1", "--i-max", "2", "--out", out)
        assert code == 0
        assert (tmp_path / "rep" / "report.csv").exists()

    def test_window_a_hair_off_the_integers_exits_two(self, tmp_path, capsys):
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "6", "--out", patch_file)
        code, _, stderr = run(capsys, "analyze", "--patch", patch_file,
                              "--window", "8.0000000001", "1", "4",
                              "--i-min", "1", "--i-max", "2", "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "integer-cornered window" in stderr
        assert not (tmp_path / "rep").exists()

    def test_empty_square_window_is_operational_error(self, tmp_path, capsys):
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "6", "--out", patch_file)
        # [0,2)^2 pokes outside the seed wedge, so some unit square is empty
        code, _, stderr = run(capsys, "analyze", "--patch", patch_file,
                              "--window", "0", "0", "2",
                              "--i-min", "0", "--i-max", "1",
                              "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "empty square" in stderr

    @pytest.mark.parametrize("window", [("0", "0", "1e10"), ("1e300", "0", "16")])
    def test_window_past_the_patch_is_an_empty_square(self, window, tmp_path, capsys):
        # either window holds more disjoint squares of side 2 than it holds
        # net points, so one is empty; no cell grid is built and no float
        # overflows an int64 cast
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "8", "--out", patch_file)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, stderr = run(capsys, "analyze", "--patch", patch_file, "--window", *window,
                                  "--i-min", "1", "--i-max", "2", "--out", str(tmp_path / "rep"))
        assert code == 2
        assert stderr == "error: empty square at i=1\n"
        assert not (tmp_path / "rep").exists()

    def test_huge_window_past_the_points_is_an_empty_square(self, tmp_path, capsys, monkeypatch):
        # the window holds only 9 disjoint squares of side 2**15, fewer than
        # the 1324 points, but they cover a corner of it; its cell grid would
        # need 10**10 cells per kind
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--seed", "half-kite", "--rounds", "8", "--out", patch_file)
        monkeypatch.setattr(discrepancy._CountGrid, "_cums",
                            property(lambda grid: pytest.fail("cell grid built")))
        code, _, stderr = run(capsys, "analyze", "--patch", patch_file, "--window", "0", "0", "100000",
                              "--i-min", "15", "--i-max", "16", "--out", str(tmp_path / "rep"))
        assert code == 2
        assert stderr == "error: empty square at i=15\n"
        assert not (tmp_path / "rep").exists()

    def test_patch_without_window_rejected(self, tmp_path, capsys):
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "2", "--out", patch_file)
        code, _, stderr = run(capsys, "analyze", "--patch", patch_file,
                              "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "--window" in stderr

    def test_bad_range_rejected(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "analyze", "--i-min", "5", "--i-max", "3",
                              "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "i-min" in stderr

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_negative_i_min_rejected_before_any_work(self, command, tmp_path, capsys):
        extra = ["--out", str(tmp_path / "rep")] if command == "analyze" else []
        code, stdout, stderr = run(capsys, command, "--i-min", "-1", "--i-max", "2", *extra)
        assert code == 2
        assert "--i-min must be >= 0" in stderr
        assert stdout == ""
        assert not (tmp_path / "rep").exists()

    def test_huge_square_hits_the_cap(self, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "analyze", "--i-max", "40", "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "half-tiles, cap is" in stderr
        assert stdout == ""
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("error, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 1.86 GiB for an array with shape (4, 124999999) and data type int32"),
         "error: out of memory: Unable to allocate 1.86 GiB for an array with shape (4, 124999999)"
         " and data type int32\n"),
    ])
    def test_memory_error_exits_two_with_one_line(self, error, line, monkeypatch, tmp_path, capsys):
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "generate_patch_covering", out_of_memory)
        code, stdout, stderr = run(capsys, "analyze", "--i-min", "2", "--i-max", "3", "--out", str(tmp_path / "rep"))
        assert (code, stdout, stderr) == (2, "", line)
        assert not (tmp_path / "rep").exists()

    def test_zero_cap_rejected(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "analyze", "--cap", "0", "--i-min", "1", "--i-max", "2",
                              "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "cap" in stderr
        assert not (tmp_path / "rep").exists()


class TestRender:
    def test_polygon_count_equals_tiles(self, tmp_path, capsys):
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "3", "--out", patch_file)
        svg_file = str(tmp_path / "p.svg")
        code, stdout, _ = run(capsys, "render", "--patch", patch_file, "--out", svg_file)
        assert code == 0
        tree = ET.parse(svg_file)
        polygons = [e for e in tree.iter() if e.tag.endswith("polygon")]
        assert len(polygons) == len(load_patch(patch_file))

    def test_net_overlay_adds_markers(self, tmp_path, capsys):
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "3", "--out", patch_file)
        svg_file = str(tmp_path / "n.svg")
        code, _, _ = run(capsys, "render", "--patch", patch_file,
                         "--overlay", "net", "--out", svg_file)
        assert code == 0
        tree = ET.parse(svg_file)
        polygons = [e for e in tree.iter() if e.tag.endswith("polygon")]
        circles = [e for e in tree.iter() if e.tag.endswith("circle")]
        patch = load_patch(patch_file)
        net = extract_net(patch)
        assert len(polygons) == len(patch)
        assert len(circles) == len(net)

    def test_grid_overlay_parses(self, tmp_path, capsys):
        patch_file = str(tmp_path / "p.txt")
        run(capsys, "generate", "--rounds", "2", "--out", patch_file)
        svg_file = str(tmp_path / "g.svg")
        code, _, _ = run(capsys, "render", "--patch", patch_file,
                         "--overlay", "grid", "--out", svg_file)
        assert code == 0
        tree = ET.parse(svg_file)
        lines = [e for e in tree.iter() if e.tag.endswith("line")]
        assert len(lines) >= 4

    def test_net_overlay_of_a_patch_not_at_final_scale_exit_two(self, tmp_path, capsys):
        patch_file, svg_file = str(tmp_path / "p.txt"), tmp_path / "n.svg"
        save_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), patch_file)
        code, _, stderr = run(capsys, "render", "--patch", patch_file, "--overlay", "net", "--out", str(svg_file))
        assert code == 2
        assert stderr == "error: net overlay requires a final-scale patch (scale_exp 0)\n"
        assert not svg_file.exists()

    def test_missing_patch_exit_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "render", "--patch",
                              str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert "error" in stderr


class TestVerify:
    def test_passes_on_small_run(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--i-min", "2", "--i-max", "3")
        assert code == 0
        assert "all exact checks passed" in stdout
        assert stdout.count("PASS") >= 8
        assert "empirical" in stdout

    def test_bad_range_rejected_before_any_work(self, capsys):
        code, stdout, stderr = run(capsys, "verify", "--i-min", "5", "--i-max", "3")
        assert code == 2
        assert "i-min" in stderr
        assert stdout == ""

    def test_shares_analyze_output_then_adds_c1_c2(self, tmp_path, capsys, monkeypatch):
        _, analyzed, _ = run(capsys, "analyze", "--i-min", "2", "--i-max", "3",
                             "--out", str(tmp_path / "rep"))
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        monkeypatch.setenv("PENROSENET_OUT", str(empty))
        code, verified, _ = run(capsys, "verify", "--i-min", "2", "--i-max", "3")
        assert code == 0
        assert list(empty.iterdir()) == []
        analyzed, verified = analyzed.splitlines(), verified.splitlines()
        assert analyzed[-1].startswith("wrote ")
        assert verified[:-3] == analyzed[:-1]
        assert verified[-3].startswith("net: c1 = ")
        assert verified[-2].startswith("net: covering radius ")
        assert verified[-1] == "all exact checks passed"

    def test_wrong_substitution_rule_fails_the_eigen_check(self, capsys, monkeypatch):
        # the Fibonacci rule has eigenvalue phi, not phi^2
        monkeypatch.setattr("penrosenet.cli.PENROSE_SUBSTITUTION",
                            SubstitutionRule(("a", "b"), ((1, 1), (1, 0))))
        code, stdout, _ = run(capsys, "verify", "--i-min", "2", "--i-max", "2")
        assert code == 1
        assert "exact: substitution eigenvalue phi^2, eigenvector ratio phi: FAIL" in stdout
        assert "FAILED: substitution eigenvalue" in stdout

    def test_c1_line_names_the_separation(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--i-min", "2", "--i-max", "2")
        assert code == 0
        assert "net: c1 = 0.726542528 (PASS: equals 2 sin36/phi within 1e-9)" in stdout.splitlines()

    @pytest.mark.parametrize("shift", [2e-9, -2e-9, -SEPARATION / 2])
    def test_c1_off_the_separation_exits_one(self, shift, capsys, monkeypatch):
        # a positive c1 is not enough: it must be the incenter net's separation
        monkeypatch.setattr(Net, "c1", property(lambda self: SEPARATION + shift))
        code, stdout, _ = run(capsys, "verify", "--i-min", "2", "--i-max", "2")
        assert code == 1
        assert "FAIL: equals 2 sin36/phi within 1e-9)" in stdout
        assert stdout.splitlines()[-1] == "FAILED: net separation"

    def test_a_window_too_small_for_its_squares_exits_two(self, capsys):
        # the side-2 window holds an empty unit square, and no sun vertex
        code, stdout, stderr = run(capsys, "verify", "--i-min", "0", "--i-max", "0")
        assert code == 2
        assert stderr == "error: empty square at i=0\n"
        assert "net: c1" not in stdout

    def test_c1_within_tolerance_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(Net, "c1", property(lambda self: SEPARATION + 5e-10))
        code, stdout, _ = run(capsys, "verify", "--i-min", "2", "--i-max", "2")
        assert code == 0
        assert stdout.splitlines()[-1] == "all exact checks passed"


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(penrosenet.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


class TestScipyOnlyForDelone:
    def test_import_generate_analyze_render_leave_scipy_spatial_unloaded(self, tmp_path):
        done = _fresh_python(f"""
import sys
import penrosenet
from penrosenet.cli import main
loaded = lambda: "scipy.spatial" in sys.modules
assert not loaded(), "import"
patch, out = {str(tmp_path / "p.txt")!r}, {str(tmp_path)!r}
assert main(["generate", "--rounds", "4", "--out", patch]) == 0 and not loaded(), "generate"
assert main(["analyze", "--i-min", "2", "--i-max", "3", "--out", out]) == 0 and not loaded(), "analyze"
assert main(["render", "--patch", patch, "--overlay", "net", "--out", out + "/p.svg"]) == 0
assert not loaded(), "render"
net = penrosenet.extract_net(penrosenet.generate_patch_covering(penrosenet.Square(-37, 21, 64)))
penrosenet.export_net(net, out + "/net.txt")
back = penrosenet.load_net(out + "/net.txt")
assert (back.c1, back.c2) == (net.c1, net.c2) and not loaded(), "net file"
print("clean")
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "clean"

    def test_verify_leaves_it_unloaded_on_the_covering_net(self):
        # the covering net's c1 and c2 come from the tiling's witnesses
        done = _fresh_python(
            "import sys\n"
            "from penrosenet.cli import main\n"
            "code = main(['verify', '--i-min', '2', '--i-max', '3'])\n"
            "print('scipy.spatial' in sys.modules, code)\n"
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[-1] == "False 0"
        assert any(line.startswith("net: c1 = ") and "PASS" in line for line in lines)
        assert any(line.startswith("net: covering radius ") and line.endswith("PASS") for line in lines)
