import argparse
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oneshot_qit import circuits, coding, flatten
from oneshot_qit.circuits import encode_decoupler_input
from oneshot_qit.cli import (ReportRecord, SUBCOMMAND_MAP, _fmt, _seed_for,
                             build_parser, emit, main, run, run_circuit)
from oneshot_qit.convexsplit import u_ell_index
from oneshot_qit.registers import Check, RegisterSystem, random_density
from oracles import simulate_basis


def run_cli(args):
    return main(args)


HOLDS = Check("holds", 0.5, 1.0)
FAILS = Check("fails", 1.5, 1.0)


class TestRecordsAndEmit:
    def test_flat_record_field_order(self):
        rec = ReportRecord("r0", {"x": 1}, {"v": 0.5}, {"b": 1.0}, [HOLDS])
        flat = rec.flat()
        assert list(flat) == ["id", "param_x", "measured_v", "bound_b",
                              "passed"]

    def test_csv_single_record(self, tmp_path):
        rec = ReportRecord("r0", {"x": 1}, {"v": 0.5}, {}, [HOLDS])
        path = tmp_path / "out.csv"
        emit([rec], "csv", str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("id,")

    def test_json_roundtrip(self, tmp_path):
        rec = ReportRecord("r0", {"x": 1, "name": "abc"},
                           {"v": 1 / 3}, {"b": 2.0}, [HOLDS, FAILS])
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
        rec = ReportRecord("r0", {}, {"v": 0.123456789012345}, {}, [HOLDS])
        path = tmp_path / "out.csv"
        emit([rec], "csv", str(path))
        assert "0.123456789012" in path.read_text()

    @pytest.mark.parametrize("value, cell", [
        (float("nan"), "nan"), (np.float64("nan"), "nan"),
        (float("inf"), "inf"), (np.float64("-inf"), "-inf")])
    def test_non_finite_cells(self, value, cell, tmp_path):
        # a measured NaN reads as nan, not -inf, so the cell agrees with
        # the failed check it comes with
        assert _fmt(value) == cell
        rec = ReportRecord("r0", {}, {"v": value}, {}, [HOLDS])
        path = tmp_path / "out.csv"
        emit([rec], "csv", str(path))
        assert path.read_text().split("\n")[1].split(",")[1] == cell


def _code_past(field):
    """coding.ea_channel_code with the report's ``field`` 5e-9 past the
    limit of its check."""
    code = coding.ea_channel_code

    def patched(*args, **kwargs):
        rep = code(*args, **kwargs)
        limit = rep.analytic_error_bound if field == "empirical_max_error" \
            else coding.entanglement_budget(2, 0.5, rep.delta_surrogate)
        return dataclasses.replace(rep, **{field: limit + 5e-9})
    return patched


def _ratio_past(limit):
    """A flatten ratio function whose ratio lies 5e-12 past ``limit(*args)``."""
    return lambda *args: (limit(*args) + 5e-12, False)


def _least(checks):
    """The check a record's stderr line names: a failed one first, then of
    those with slack the one of least margin, an exact one last."""
    return min(checks, key=lambda c: (c.holds, c.slack == 0, c.margin))


class TestChecks:
    """Each record passes when all of its checks hold; --tolerance-scale
    multiplies the slack of every record check, and each record's least
    margin goes to stderr only."""

    # the check names of each subcommand's records at its default flags
    NAMES = {
        "entropy": {("closed form",)},
        "convexsplit": {("split bound", "fidelity floor"), ("split bound",)},
        "circuit": {("truth table mismatches", "swap size", "swap depth")},
        "flatten": {("embezzle ratio",), ("unembezzle ratio",),
                    ("split bound",)},
        "decode": {("success floor",)},
        "code": {("error bound", "refusal above cap", "entanglement budget")},
        "bounds": {("merge cost",)},
    }

    @staticmethod
    def records(tmp_path, sub, *flags):
        args = build_parser().parse_args(
            [sub, "--out", str(tmp_path / f"{sub}.csv"), *flags])
        return run(args)[1]

    def test_record_passes_when_all_checks_hold(self):
        assert ReportRecord("r", {}, {}, {}, [HOLDS, HOLDS]).passed
        assert not ReportRecord("r", {}, {}, {}, [HOLDS, FAILS]).passed

    @pytest.mark.parametrize("sub", list(SUBCOMMAND_MAP))
    def test_each_subcommand_lists_its_checks(self, sub, tmp_path, capsys):
        records = self.records(tmp_path, sub)
        assert {tuple(c.name for c in rec.checks) for rec in records} \
            == self.NAMES[sub]
        # one stderr line per record: its time, least margin and that check
        err = capsys.readouterr().err
        for rec in records:
            least = _least(rec.checks)
            line = re.search(rf"^  {re.escape(rec.record_id)}: \d+\.\d{{3}}s, "
                             r"least margin (\S+) \((.+)\)$", err, re.M)
            assert line.group(2) == least.name
            assert float(line.group(1)) == float(f"{least.margin:.3g}")
        # the report carries no margin column
        header = (tmp_path / f"{sub}.csv").read_text().splitlines()[0]
        assert "margin" not in header

    def test_entropy_tolerance_column_follows_the_scale(self, tmp_path):
        for scale, tol in (("1", 1e-5), ("10", 1e-4)):
            for rec in self.records(tmp_path, "entropy", "--tolerance-scale",
                                    scale):
                assert rec.bounds["tolerance"] == rec.checks[0].slack == tol

    @pytest.mark.parametrize("sub, module, name, patched, failing, count", [
        ("code", coding, "ea_channel_code",
         _code_past("empirical_max_error"), "error bound", 1),
        ("code", coding, "ea_channel_code",
         _code_past("entanglement_qubits"), "entanglement budget", 1),
        ("flatten", flatten, "check_embezzle_upper",
         _ratio_past(lambda a, b, n: flatten.harmonic_sum(1, n)
                     / flatten.harmonic_sum(a, n)), "embezzle ratio", 3),
        ("flatten", flatten, "check_unembezzle",
         _ratio_past(lambda *args: 4.0), "unembezzle ratio", 2)],
        ids=["code-bound", "code-budget", "embezzle", "unembezzle"])
    def test_scale_reaches_the_check(self, sub, module, name, patched,
                                     failing, count, tmp_path, monkeypatch):
        # past the slack at scale 1, within it at scale 10
        monkeypatch.setattr(module, name, patched)
        failed = [[c.name for c in rec.checks if not c.holds]
                  for rec in self.records(tmp_path, sub)]
        assert [names for names in failed if names] == [[failing]] * count
        assert all(rec.passed for rec in self.records(
            tmp_path, sub, "--tolerance-scale", "10"))
        assert main([sub, "--out", str(tmp_path / "r.csv")]) == 1
        assert main([sub, "--out", str(tmp_path / "r.csv"),
                     "--tolerance-scale", "10"]) == 0

    def test_least_margin_passes_over_exact_checks(self, tmp_path, capsys):
        # code's refusal check is exact (margin 0): the line names the
        # check with slack and least margin, the entanglement budget
        [rec] = self.records(tmp_path, "code")
        assert rec.checks[1].slack == 0 and rec.checks[1].margin == 0
        assert 0 < rec.checks[2].margin < rec.checks[0].margin
        assert "least margin 1.56 (entanglement budget)" in \
            capsys.readouterr().err
        # a record of exact checks only names the least of them
        [rec] = self.records(tmp_path, "circuit", "--verify", "none")
        assert "least margin 0 (truth table mismatches)" in \
            capsys.readouterr().err
        # and a failed check comes first, exact or not
        assert _least([Check("a", 0.5, 1.0, "<=", 1e-9),
                       Check("b", 2, 3, "==")]).name == "b"
        assert _least([Check("a", 0.5, 1.0, "<=", 1e-9),
                       Check("b", 3, 3, "==")]).name == "a"

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "0",
                                       "ten"])
    def test_scale_must_be_finite_and_positive(self, scale, tmp_path,
                                               capsys):
        out = tmp_path / "r.csv"
        assert _exit_status(["code", "--out", str(out),
                             f"--tolerance-scale={scale}"]) == 2
        assert "--tolerance-scale" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tolerance_scale={scale}\n")
        assert _exit_status(["code", "--config", str(cfg), "--out",
                             str(out)]) == 2
        assert not out.exists()


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

    def test_prime_zero_is_refused(self, tmp_path, capsys):
        # used to run at the default prime and report param_prime 0
        out = tmp_path / "r.csv"
        assert main(["convexsplit", "--prime", "0", "--out", str(out)]) == 2
        assert not out.exists()
        assert "error: 0 is not prime" in capsys.readouterr().err

    def test_circuit_exhaustive(self, tmp_path):
        out = tmp_path / "circ.csv"
        status = main(["circuit", "--dim-c", "2", "--prime", "5",
                       "--verify", "exhaustive", "--out", str(out)])
        assert status == 0
        text = out.read_text()
        assert "mismatches" in text

    @staticmethod
    def _loop_mismatches(circ, prime):
        """The rows of the circuit's truth table that are wrong, one input
        at a time: the reference of run_circuit's array form."""
        n = max(1, (prime - 1).bit_length())
        wrong = 0
        for ell in range(prime):
            image = u_ell_index(ell, prime)
            for i in range(prime):
                for j in range(prime):
                    row = simulate_basis(circ, encode_decoupler_input(
                        n, n, i, j, ell, circ.wire_count))
                    got = tuple(sum(row[s * n + k] << k for k in range(n))
                                for s in (0, 1, 2))
                    wrong += got != divmod(int(image[i * prime + j]), prime) \
                        + (ell,) or any(row[3 * n:])
        return wrong

    @pytest.mark.parametrize("gate, wrong", [
        (("X", 0, ()), 125),                # i's low bit: every row
        (("X", 9, ()), 125),                # the first scratch wire, 3n
        (("CNOT", -1, (0,)), 50),           # dirty where i' is odd: 2/5
        (("X", 6, ()), 125)])               # l's low bit, wire 2n
    def test_circuit_counts_each_wrong_row(self, gate, wrong, monkeypatch):
        synth = circuits.synth_decoupler

        def broken(*args):
            circ = synth(*args)
            kind, target, controls = gate
            circ.gates.append(circuits.Gate(kind, target % circ.wire_count,
                                            controls))
            return circ

        monkeypatch.setattr(circuits, "synth_decoupler", broken)
        args = argparse.Namespace(dim_c=2, prime=5, verify="exhaustive")
        [rec] = run_circuit(args)
        assert rec.measured["mismatches"] == wrong and not rec.passed
        assert self._loop_mismatches(broken(2, 5, 5), 5) == wrong

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
