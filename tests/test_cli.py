import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oneshot_qit.cli import ReportRecord, SUBCOMMAND_MAP, _seed_for, emit, main
from oneshot_qit.registers import RegisterSystem, random_density


def run_cli(args):
    return main(args)


class TestRecordsAndEmit:
    def test_flat_record_field_order(self):
        rec = ReportRecord("r0", {"x": 1}, {"v": 0.5}, {"b": 1.0}, True)
        flat = rec.flat()
        assert list(flat) == ["id", "param_x", "measured_v", "bound_b",
                              "passed"]

    def test_csv_single_record(self, tmp_path):
        rec = ReportRecord("r0", {"x": 1}, {"v": 0.5}, {}, True)
        path = tmp_path / "out.csv"
        emit([rec], "csv", str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("id,")

    def test_json_roundtrip(self, tmp_path):
        rec = ReportRecord("r0", {"x": 1, "name": "abc"},
                           {"v": 1 / 3}, {"b": 2.0}, False)
        path = tmp_path / "out.json"
        emit([rec], "json", str(path))
        rows = json.loads(path.read_text())
        assert rows[0]["param_x"] == 1
        assert rows[0]["param_name"] == "abc"
        assert isinstance(rows[0]["measured_v"], float)
        assert rows[0]["passed"] is False

    def test_empty_refused(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "csv", str(tmp_path / "x.csv"))

    def test_twelve_significant_digits(self, tmp_path):
        rec = ReportRecord("r0", {}, {"v": 0.123456789012345}, {}, True)
        path = tmp_path / "out.csv"
        emit([rec], "csv", str(path))
        assert "0.123456789012" in path.read_text()


class TestSubcommands:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SUBCOMMAND_MAP:
            assert name in out

    def test_no_command_usage(self):
        assert main([]) == 2

    def test_entropy_demo(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["entropy", "--demo", "--out", str(out)]) == 0
        assert out.exists()

    def test_convexsplit(self, tmp_path):
        out = tmp_path / "c.csv"
        status = main(["convexsplit", "--dim-c", "2", "--prime", "5",
                       "--ladder", "1,2,4", "--seed", "7",
                       "--out", str(out)])
        assert status == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) >= 4   # header + 3 classical records at least

    def test_circuit_exhaustive(self, tmp_path):
        out = tmp_path / "circ.csv"
        status = main(["circuit", "--dim-c", "2", "--prime", "5",
                       "--verify", "exhaustive", "--out", str(out)])
        assert status == 0
        text = out.read_text()
        assert "mismatches" in text

    def test_bounds(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2

    def test_decode(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["decode", "--out", str(out)]) == 0

    def test_decode_flat(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["decode", "--flat", "--format", "json",
                     "--out", str(out)]) == 0
        rows = {row["id"]: row for row in json.loads(out.read_text())}
        assert rows["decode-flat-S1"]["passed"] is True

    def test_dump_parses_back_to_the_seeded_state(self, tmp_path):
        dump = tmp_path / "psi.txt"
        assert main(["convexsplit", "--ladder", "1", "--seed", "5",
                     "--dump", str(dump), "--out", str(tmp_path / "c.csv")]) == 0
        pairs = np.array([[float(x) for x in line.split()]
                          for line in dump.read_text().splitlines()])
        psi = random_density(_seed_for(5, 0),
                             RegisterSystem([("R", 2), ("C", 2)]))
        assert np.array_equal(pairs[:, 0::2] + 1j * pairs[:, 1::2], psi.matrix)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["convexsplit", "--dim-c", "2", "--prime", "5",
                         "--ladder", "1,2", "--seed", "11",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["entropy", "--demo", "--seed", "3", "--format",
                         "json", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_values(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["convexsplit", "--seed", "1", "--out", str(a)])
        main(["convexsplit", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


def _exit_status(argv):
    """main's exit status, returned or raised through argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestConfigFile:
    def test_config_applies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\n[convexsplit]\nladder=1,2\nprime=5\n"
                       "[circuit]\nprime=7\n")
        out_a = tmp_path / "a.csv"
        assert main(["convexsplit", "--config", str(cfg),
                     "--out", str(out_a)]) == 0
        text = out_a.read_text()
        assert "convexsplit-classical-N2" in text
        assert "convexsplit-classical-N4" not in text
        # a flag overrides the file value
        out_b = tmp_path / "b.csv"
        assert main(["convexsplit", "--config", str(cfg), "--ladder", "4",
                     "--out", str(out_b)]) == 0
        assert "convexsplit-classical-N4" in out_b.read_text()

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert main(["entropy", "--config", str(cfg)]) == 2

    def test_format_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n")
        out = tmp_path / "b.out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 2
        assert main(["bounds", "--config", str(cfg), "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("id,")

    def test_flat_key_adds_the_flat_record(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[decode]\nflat=true\n")
        out = tmp_path / "d.csv"
        assert main(["decode", "--config", str(cfg), "--out", str(out)]) == 0
        assert "decode-flat-S1" in out.read_text()

    @pytest.mark.parametrize("command, line", [
        ("code", "channel=bogus"), ("circuit", "verify=bogus"),
        ("convexsplit", "primes=7")])
    def test_bad_value_or_key_is_a_usage_error(self, tmp_path, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{command}]\n{line}\n")
        out = tmp_path / "r.csv"
        assert _exit_status([command, "--config", str(cfg),
                             "--out", str(out)]) == 2
        assert not out.exists()

    def test_abbreviated_key_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[circuit]\nprim=7\n")
        out = tmp_path / "r.csv"
        assert _exit_status(["circuit", "--config", str(cfg),
                             "--out", str(out)]) == 2
        assert not out.exists()
        # the full key is taken, and the command line still takes prefixes
        cfg.write_text("[circuit]\nprime=7\nverify=none\n")
        assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == 0
        assert "circuit-decoupler-C2-G7" in out.read_text()
        assert main(["circuit", "--dim", "3", "--pri", "11", "--verify", "none",
                     "--out", str(out)]) == 0
        assert "circuit-decoupler-C3-G11" in out.read_text()

    @pytest.mark.parametrize("text, line, key", [
        ("[circuit]\nprim=7\n", 2, "prim"),
        ("seed=3\nladder=1\n", 2, "ladder"),
        ("[circuit]\nprime=7\n\n[convexsplit]\nbogus=1\n", 5, "bogus")],
        ids=["abbreviated", "before-any-section", "other-section"])
    def test_unknown_key_names_file_line_and_key(self, tmp_path, capsys,
                                                 text, line, key):
        # checked in every section, also those of other subcommands
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "r.csv"
        assert main(["circuit", "--config", str(cfg), "--verify", "none",
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{cfg}, line {line}: key {key!r}" in err

    def test_channel_parameter_out_of_range_is_named(self, tmp_path, capsys):
        # used to exit with "Eigenvalues did not converge"
        out = tmp_path / "r.csv"
        assert main(["code", "--channel", "depolarizing", "--p", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "error: p = 2.0 outside [0, 1.333]" in capsys.readouterr().err

    def test_section_naming_no_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[convexsplt]\nladder=1\n")
        out = tmp_path / "r.csv"
        assert main(["convexsplit", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestScriptEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "e.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "oneshot_qit.cli", "entropy", "--demo",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "expected" \
    / "files"


class TestGoldenReports:
    @pytest.mark.parametrize("sub", list(SUBCOMMAND_MAP))
    def test_default_report_matches_frozen_bytes(self, sub, tmp_path):
        # the frozen reports are read in place from the benchmark's fixtures
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{sub}.csv").read_bytes()
