import contextlib
import io
import json
import subprocess
import sys

import pytest

from _oracles import descriptor_from_json
from pcretract import cli
from pcretract.cli import MAX_COORDINATES, MAX_DIM, MAX_PAIR_ROWS
from pcretract.constructions import CONSTRUCTION_IDS, build_construction, unit_sphere
from pcretract.core import DiagonalBands, NormKind, piece
from pcretract.fields import FIELD_HEADS, parse_field

CLI = [sys.executable, "-m", "pcretract.cli"]


def run_cli(*args):
    """Run ``cli.main`` in this process, as ``pcretract`` would be run from a
    shell: stdout and stderr are captured as bytes, and an argparse
    ``SystemExit`` becomes the return code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    return subprocess.CompletedProcess(args, code, out.getvalue().encode(), err.getvalue().encode())


def run_process(*args, env=None):
    """Run ``pcretract`` in a new interpreter.  Only the tests that a single
    process cannot show use it:
    - test_env_seed_used, test_malformed_env_seed_is_usage_error and
      test_negative_env_seed_names_the_variable, which set PCRETRACT_SEED
      in the environment;
    - test_closed_stdout_ends_quietly, which closes the real stdout pipe;
    - test_nan_operator_values_are_a_usage_error and test_dim_at_cap_accepted,
      which assert that stderr holds no numpy warning: in one process the
      warnings registry shows a warning once per location, and pytest
      catches it, so the assert could pass without testing anything;
    - TestInProcessReuse.test_repeated_calls_match_fresh_processes, which
      compares in-process calls with fresh processes.
    """
    return subprocess.run(CLI + list(args), capture_output=True, env=env)


class TestVerifyCommand:
    def test_green_path_json(self):
        p = run_cli(
            "verify", "--construction", "sphere", "--dim", "3", "--norm", "p:2",
            "--samples", "500", "--seed", "7", "--format", "json",
        )
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["all_pass"] is True
        assert doc["construction"] == "sphere"
        assert all(c["status"] != "fail" for c in doc["checks"])

    def test_byte_identical_repeat_runs(self):
        args = (
            "verify", "--construction", "sphere", "--samples", "400",
            "--seed", "7", "--format", "json",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_paper_witness_fails_cover(self):
        p = run_cli(
            "verify", "--construction", "sphere", "--samples", "300",
            "--seed", "1", "--paper-witness", "--format", "json",
        )
        assert p.returncode == 1
        doc = json.loads(p.stdout)
        failing = [c for c in doc["checks"] if c["status"] == "fail"]
        assert any(c["check"] == "cover-and-monotonicity" for c in failing)
        assert [[0.0, 0.0]] in [c["witness_points"] for c in failing]

    def test_open_ball_dimension_one_passes(self):
        # open-ball takes every dimension >= 1, as sphere does.
        p = run_cli("verify", "--construction", "open-ball", "--dim", "1", "--seed", "7")
        assert p.returncode == 0
        assert p.stdout.splitlines()[-1] == b"result: ALL PASS"

    def test_open_ball_low_dimension(self):
        p = run_cli(
            "verify", "--construction", "open-ball", "--dim", "1", "--samples", "200", "--seed", "3",
        )
        assert p.returncode == 0

    def test_unknown_construction_usage_error(self):
        p = run_cli("verify", "--construction", "mystery")
        assert p.returncode == 2

    def test_bad_norm_string(self):
        p = run_cli("verify", "--construction", "sphere", "--norm", "chebyshev", "--samples", "10")
        assert p.returncode == 2

    @pytest.mark.parametrize("norm,message", [
        ("p:0.5", "p-norm parameter must satisfy p >= 1, got 0.5"),
        ("p:nan", "p-norm parameter must satisfy p >= 1, got nan"),
        ("p:abc", "unrecognized norm 'p:abc'; use 'p:<value>' or 'max'"),
    ])
    def test_norm_error_names_its_reason(self, norm, message, capsys):
        # Only text that is not a number is unrecognized; a number out of
        # range says why.
        assert cli.main(["verify", "--construction", "sphere", "--norm", norm]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_fields_flag_runs_operator_suite(self):
        p = run_cli(
            "verify", "--construction", "sphere", "--samples", "400", "--seed", "2",
            "--fields", "const:1,coord:0", "--format", "json",
        )
        assert p.returncode == 0
        names = [c["check"] for c in json.loads(p.stdout)["checks"]]
        assert "operator-isometry" in names

    @pytest.mark.parametrize("fields", ["prod:0,1", "poly:0:1,2", "coord:0,prod:0,1,poly:0:1,2,sin:1"])
    def test_fields_with_commas_inside_an_expression(self, fields):
        # prod and poly use commas themselves; a comma splits only before a
        # catalog head.
        p = run_cli(
            "verify", "--construction", "sphere", "--samples", "400", "--seed", "2",
            "--fields", fields, "--format", "json",
        )
        assert p.returncode == 0, p.stderr
        names = [c["check"] for c in json.loads(p.stdout)["checks"]]
        assert "operator-isometry" in names

    def test_every_catalog_head_splits_and_parses(self):
        # One expression per head; a new head needs an example here.
        examples = {"const": "const:1", "coord": "coord:0", "sin": "sin:1", "cos": "cos:0",
                    "prod": "prod:0,1", "poly": "poly:0:1,0,2"}
        assert set(examples) == set(FIELD_HEADS)
        exprs = [examples[head] for head in FIELD_HEADS]
        assert cli._FIELD_SEPARATOR.split(",".join(exprs)) == exprs
        circle = unit_sphere(NormKind(2.0), 2)
        for expr in exprs:
            assert parse_field(expr, 2, circle).label.startswith(expr.partition(":")[0] + ":")

    def test_nan_operator_values_are_a_usage_error(self):
        # Linearity computes inf - inf on these fields; a NaN used to be
        # dropped and the run printed ALL PASS.
        p = run_process(
            "verify", "--construction", "sphere", "--dim", "3", "--samples", "300",
            "--seed", "7", "--fields", "const:1e308,const:-1e308",
        )
        assert p.returncode == 2
        assert p.stdout == b""
        # One line: numpy's overflow warnings on the way to the NaN stay silent.
        assert p.stderr == b"error: operator-linearity is undefined: its compared values include NaN\n"

    @pytest.mark.parametrize("fields,expr", [
        ("const:inf", "const:inf"), ("coord:0,const:nan", "const:nan"), ("poly:0:1,nan", "poly:0:1,nan"),
    ])
    def test_non_finite_field_constant_is_a_usage_error(self, fields, expr):
        # Rejected at parse time, naming the expression, before any check runs.
        p = run_cli("verify", "--construction", "sphere", "--dim", "3", "--fields", fields)
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr.startswith(f"error: malformed field expression '{expr}': constant ".encode())
        assert p.stderr.endswith(b" is not finite\n") and p.stderr.count(b"\n") == 1

    def test_inconclusive_run_does_not_say_all_pass(self):
        args = ("verify", "--construction", "open-ball", "--dim", "3", "--seed", "7", "--pairs", "1")
        p = run_cli(*args)
        assert p.returncode == 0
        assert p.stdout.splitlines()[-1] == b"result: NO FAILURES (10 of 13 checks inconclusive)"
        assert b"ALL PASS" not in p.stdout
        doc = json.loads(run_cli(*args, "--format", "json").stdout)
        assert doc["all_pass"] is True
        assert sum(c["status"] == "inconclusive" for c in doc["checks"]) == 10

    def test_conclusive_passing_run_says_all_pass(self):
        p = run_cli("verify", "--construction", "glue", "--samples", "500", "--seed", "7")
        assert p.returncode == 0
        assert p.stdout.splitlines()[-1] == b"result: ALL PASS"

    @pytest.mark.parametrize(
        "flag,bound", [("--samples", 10**7), ("--pairs", 10**7), ("--max-piece-index", 10**4)]
    )
    def test_work_flags_bounded(self, flag, bound):
        p = run_cli("verify", "--construction", "fractional", flag, str(bound + 1))
        assert p.returncode == 2
        assert flag.encode() in p.stderr

    @pytest.mark.parametrize("flag", ["--membership-tol", "--identity-tol"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-9"])
    def test_tolerance_flags_finite_and_positive(self, flag, value):
        p = run_cli("verify", "--construction", "sphere", "--samples", "100", f"{flag}={value}")
        assert p.returncode == 2
        assert p.stderr.startswith(b"error: " + flag.encode())
        assert p.stdout == b""

    @pytest.mark.parametrize("command", ["verify", "witness"])
    @pytest.mark.parametrize("construction", ["fractional", "glue"])
    @pytest.mark.parametrize(
        # --dim 2 is the default of the other constructions, given explicitly.
        "flags,named", [(("--dim", "2"), b"--dim"), (("--norm", "max"), b"--norm")]
    )
    def test_line_constructions_reject_other_dim_or_norm(self, command, construction, flags, named):
        extra = ("--n", "1") if command == "witness" else ("--samples", "10")
        p = run_cli(command, "--construction", construction, *flags, *extra)
        assert p.returncode == 2
        assert named in p.stderr
        assert p.stdout == b""

    @pytest.mark.parametrize("construction", ["fractional", "glue"])
    def test_line_constructions_accept_their_own_dim_and_norm(self, construction):
        args = ("verify", "--construction", construction, "--samples", "200", "--seed", "3")
        plain = run_cli(*args)
        assert plain.returncode == 0
        assert b"dim=1 norm=p:2" in plain.stdout
        assert run_cli(*args, "--dim", "1", "--norm", "p:2").stdout == plain.stdout

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        p = run_cli(
            "verify", "--construction", "glue", "--samples", "300", "--seed", "5",
            "--format", "json", "--output", str(out),
        )
        assert p.returncode == 0
        assert json.loads(out.read_text())["construction"] == "glue"

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_is_usage_error(self, tmp_path, where):
        # The path is opened before the suite runs, so nothing is printed.
        out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
        p = run_cli("verify", "--construction", "glue", "--samples", "300", "--output", str(out))
        assert p.returncode == 2
        assert p.stdout == b""
        assert len(p.stderr.splitlines()) == 1
        assert p.stderr.startswith(b"error: --output: cannot write " + str(out).encode())


class TestWitnessCommand:
    def test_sphere_piece_two(self):
        p = run_cli("witness", "--construction", "sphere", "--n", "2")
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["variant"] == "finite_union"
        variants = {m["variant"] for m in doc["members"]}
        assert variants == {"singleton", "norm_band"}
        band = next(m for m in doc["members"] if m["variant"] == "norm_band")
        assert band["lo"] == 0.5

    def test_fractional_piece_one(self):
        p = run_cli("witness", "--construction", "fractional", "--n", "1")
        doc = json.loads(p.stdout)
        assert [(m["lo"], m["hi"]) for m in doc["members"]] == [
            (-1.0, -0.5),
            (0.0, 0.5),
            (1.0, 1.5),
        ]

    def test_large_fractional_index_is_bounded_json(self):
        p = run_cli("witness", "--construction", "fractional", "--n", "1000000000000")
        assert p.returncode == 0
        assert json.loads(p.stdout) == {
            "variant": "diagonal_bands", "coordinate": 0,
            "start": -(10**12), "m": 10**12, "dim": 1,
        }

    @pytest.mark.parametrize("construction, n", [
        *((c, n) for c in CONSTRUCTION_IDS for n in (0, 1, 3, 1200)),
        ("fractional", 10**12),
        ("open-ball", 10**12),
    ])
    def test_output_reads_back_as_the_piece(self, construction, n, capsys):
        assert cli.main(["witness", "--construction", construction, "--n", str(n)]) == 0
        doc = json.loads(capsys.readouterr().out)
        m = build_construction(construction, 1 if construction in cli.LINE_CONSTRUCTIONS else 2)
        want = piece(m.witness, n)
        if isinstance(want, DiagonalBands) and doc["variant"] == "finite_union":
            want = want.expand()  # small diagonal pieces serialize expanded
        assert descriptor_from_json(doc) == want

    def test_inexact_diagonal_index_rejected(self):
        p = run_cli("witness", "--construction", "open-ball", "--n", str(2**52))
        assert p.returncode == 2
        assert b"2**52" in p.stderr

    def test_negative_index_rejected(self):
        p = run_cli("witness", "--construction", "sphere", "--n", "-1")
        assert p.returncode == 2

    @pytest.mark.parametrize("construction", ["glue", "sphere", "extend", "const-extend"])
    @pytest.mark.parametrize("n", [2**62 + 1, 10**400], ids=["2**62+1", "10**400"])
    def test_index_above_cap_rejected(self, construction, n):
        p = run_cli("witness", "--construction", construction, "--n", str(n))
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr == f"error: --n must be between 0 and {2**62}, got {n}\n".encode()

    def test_index_at_cap_accepted(self):
        p = run_cli("witness", "--construction", "glue", "--n", str(2**62))
        assert p.returncode == 0
        assert json.loads(p.stdout)["variant"] == "finite_union"

    def test_seed_is_not_a_witness_flag(self):
        # witness draws nothing, so a seed would be silently ignored.
        p = run_cli("witness", "--construction", "glue", "--n", "1", "--seed", "5")
        assert p.returncode == 2
        assert b"--seed" in p.stderr
        assert p.stdout == b""

    @pytest.mark.parametrize("command", ["verify", "witness"])
    @pytest.mark.parametrize("flag,construction", [
        ("--paper-witness", "open-ball"),
        ("--paper-witness", "glue"),
    ])
    def test_flag_of_another_construction_is_usage_error(self, command, flag, construction):
        p = run_cli(command, "--construction", construction, "--n" if command == "witness" else "--samples",
                    "1", flag)
        assert p.returncode == 2
        assert flag.encode() in p.stderr
        assert p.stdout == b""

    @pytest.mark.parametrize("command", ["verify", "witness"])
    @pytest.mark.parametrize("construction", ["open-ball", "sphere", "fractional"])
    def test_removed_flag_is_usage_error(self, command, construction):
        # open-ball takes dimension 1 without a flag, so there is no --allow-low-dim.
        p = run_cli(command, "--construction", construction, "--n" if command == "witness" else "--samples",
                    "1", "--allow-low-dim")
        assert p.returncode == 2
        assert b"unrecognized arguments: --allow-low-dim" in p.stderr
        assert p.stdout == b""

    def test_closed_stdout_ends_quietly(self):
        # About 90 kB of JSON, more than a pipe holds, so the command is still
        # writing when the reader closes the pipe after one line.
        proc = subprocess.Popen(CLI + ["witness", "--construction", "fractional", "--n", "500"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize("command", ["verify", "witness"])
    def test_help_describes_witness_flags(self, command):
        p = run_cli(command, "--help")
        assert p.returncode == 0
        text = " ".join(p.stdout.decode().split())
        assert "--paper-witness sphere only: use the un-augmented band witness, which misses the origin" in text
        assert "--allow-low-dim" not in text


class TestDimBound:
    """--dim is at most MAX_DIM on every command, and verify's point sets at
    most MAX_COORDINATES floats, so a huge value is an exit-2 error rather
    than an out-of-memory failure."""

    COMMANDS = {
        "verify": ("verify", "--construction", "sphere", "--samples", "100", "--pairs", "100"),
        "witness": ("witness", "--construction", "sphere", "--n", "1"),
        "demo": ("demo", "--depth", "2"),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dim_at_cap_accepted(self, command):
        p = run_process(*self.COMMANDS[command], "--dim", str(MAX_DIM))
        assert p.returncode == 0, p.stderr
        assert p.stderr == b""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**6, 10**8])
    def test_dim_above_cap_rejected(self, command, dim):
        p = run_cli(*self.COMMANDS[command], "--dim", str(dim))
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr == f"error: --dim must be at most 1000, got {dim}\n".encode()

    @pytest.mark.parametrize("args", [
        ("verify", "--construction", "sphere"),
        ("witness", "--construction", "sphere", "--n", "1"),
        ("demo", "--u", "1", "--v", "-1"),
    ])
    @pytest.mark.parametrize("dim", [0, -3])
    def test_dim_below_one_rejected(self, args, dim):
        # The error names the flag, on every command.
        p = run_cli(*args, "--dim", str(dim))
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr == f"error: --dim must be at least 1, got {dim}\n".encode()

    @pytest.mark.parametrize("flag", ["--samples", "--pairs"])
    def test_rows_times_dim_bounded(self, flag, monkeypatch, capsys):
        # The suite is stubbed out: at the cap a real run draws 240 MB arrays.
        monkeypatch.setattr(cli, "run_suite", lambda m, **kwargs: [])
        rows = MAX_COORDINATES // MAX_DIM
        args = ["verify", "--construction", "sphere", "--dim", str(MAX_DIM)]
        assert cli.main(args + [flag, str(rows)]) == 0
        capsys.readouterr()
        assert cli.main(args + [flag, str(rows + 1)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} times --dim must be at most 30000000, got {rows + 1} * 1000\n"
        )


class TestPairRowsBound:
    """--pairs times --max-piece-index is at most MAX_PAIR_ROWS, so two flags
    that are each within their caps cannot ask for hours of continuity rows."""

    def test_at_bound_accepted_above_rejected(self, monkeypatch, capsys):
        # The suite is stubbed out: at the bound a real run takes half a minute.
        monkeypatch.setattr(cli, "run_suite", lambda m, **kwargs: [])
        args = ["verify", "--construction", "fractional"]
        assert cli.main(args + ["--pairs", "10000", "--max-piece-index", "10000"]) == 0
        capsys.readouterr()
        assert 5_882_353 * 17 == MAX_PAIR_ROWS + 1
        assert cli.main(args + ["--pairs", "5882353", "--max-piece-index", "17"]) == 2
        assert capsys.readouterr() == (
            "", "error: --pairs times --max-piece-index must be at most 100000000, got 5882353 * 17\n"
        )

    def test_both_caps_at_once_rejected(self):
        p = run_cli("verify", "--construction", "fractional", "--pairs", "10000000",
                    "--max-piece-index", "10000", "--samples", "10")
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr == (
            b"error: --pairs times --max-piece-index must be at most 100000000, got 10000000 * 10000\n"
        )


class TestInProcessReuse:
    """main() keeps its parser and its maps for the life of the process;
    repeated in-process calls must answer exactly as fresh processes do."""

    COMMANDS = (
        ("verify", "--construction", "sphere", "--samples", "300", "--seed", "7", "--format", "json"),
        ("verify", "--construction", "extend", "--dim", "3", "--samples", "300", "--seed", "4",
         "--fields", "coord:0,sin:1,cos:2,const:2,poly:0:3"),
        ("witness", "--construction", "sphere", "--n", "2"),
        ("demo", "--dim", "3", "--depth", "4"),
        ("verify", "--construction", "open-ball", "--dim", "3", "--paper-witness"),
        ("verify", "--construction", "sphere", "--samples", "300", "--seed", "7", "--paper-witness"),
    )

    def test_repeated_calls_match_fresh_processes(self, capsys):
        fresh = []
        for args in self.COMMANDS:
            p = run_process(*args)
            fresh.append((p.returncode, p.stdout.decode(), p.stderr.decode()))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 1]
        for _ in range(2):  # interleaved, so each call follows a different one
            for args, expected in zip(self.COMMANDS, fresh):
                code = cli.main(list(args))
                out, err = capsys.readouterr()
                assert (code, out, err) == expected, args

    def test_parser_survives_system_exit(self, capsys):
        args = ["witness", "--construction", "glue", "--n", "1"]
        assert cli.main(args) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as bad:
            cli.main(["verify", "--construction", "sphere", "--no-such-flag"])
        assert bad.value.code == 2
        with pytest.raises(SystemExit) as help_exit:
            cli.main(["verify", "--help"])
        assert help_exit.value.code == 0
        capsys.readouterr()
        assert cli.build_parser() is cli.build_parser()
        assert cli.main(args) == 0
        assert capsys.readouterr() == first

    def test_paper_witness_maps_kept_apart(self):
        parse = cli.build_parser().parse_args
        sphere = ["witness", "--construction", "sphere", "--n", "0"]
        plain = cli._build_map(parse(sphere))
        paper = cli._build_map(parse(sphere + ["--paper-witness"]))
        assert paper is not plain
        assert cli._build_map(parse(sphere)) is plain
        assert cli._build_map(parse(sphere + ["--paper-witness"])) is paper
        # The un-augmented band witness misses the origin at piece 0.
        assert plain.witness.piece_at(0) != paper.witness.piece_at(0)

    def test_flag_checks_run_on_every_call(self, capsys):
        args = ["witness", "--construction", "open-ball", "--dim", "3", "--n", "1"]
        assert cli.main(args) == 0
        for _ in range(2):
            assert cli.main(args + ["--paper-witness"]) == 2
            assert capsys.readouterr().err.startswith("error: --paper-witness applies only to sphere")


class TestDemoCommand:
    def test_default_directions(self):
        p = run_cli("demo", "--dim", "2", "--depth", "12")
        assert p.returncode == 0
        lines = p.stdout.decode().strip().splitlines()
        assert len(lines) == 13  # header + 12 rows
        assert "1.4142135623730951" in lines[-1]

    def test_equal_directions_rejected(self):
        p = run_cli("demo", "--u", "1,0", "--v", "1,0")
        assert p.returncode == 2

    def test_zero_depth_rejected(self):
        p = run_cli("demo", "--dim", "2", "--depth", "0")
        assert p.returncode == 2

    def test_depth_past_underflow_rejected(self):
        # 10.0**-324 is 0.0, so row 324 on would show nothing.
        p = run_cli("demo", "--dim", "2", "--depth", "324")
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr == b"error: depth must be between 1 and 323, got 324\n"

    def test_deepest_depth_accepted(self):
        p = run_cli("demo", "--dim", "2", "--depth", "323")
        assert p.returncode == 0
        lines = p.stdout.decode().strip().splitlines()
        assert len(lines) == 324  # header + 323 rows
        assert lines[-1].split()[:2] == ["323", "9.8813129168249309e-324"]

    def test_non_unit_direction_rejected(self):
        p = run_cli("demo", "--u", "2,0", "--v", "0,1")
        assert p.returncode == 2

    @pytest.mark.parametrize("args, message", [
        (["--u", "1,0,0", "--v", "0,1"], "demo directions must have dimension 2, got 3 and 2"),
        (["--u", "1,0", "--v", "0,1,0"], "demo directions must have dimension 2, got 2 and 3"),
        (["--u", "1,x", "--v", "0,1"], "--u must be comma-separated finite numbers, got '1,x'"),
        (["--u", "1,0", "--v", "0,"], "--v must be comma-separated finite numbers, got '0,'"),
        (["--u", "inf,0", "--v", "0,1"], "--u must be comma-separated finite numbers, got 'inf,0'"),
        (["--u", "1,0", "--v", "nan,1"], "--v must be comma-separated finite numbers, got 'nan,1'"),
    ])
    def test_malformed_direction_names_its_fault(self, args, message, capsys):
        assert cli.main(["demo", "--dim", "2", *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSeedEnvOverride:
    def test_env_seed_used(self):
        import os

        env = dict(os.environ, PCRETRACT_SEED="99")
        with_env = run_process(
            "verify", "--construction", "sphere", "--samples", "300", "--format", "json",
            env=env,
        )
        explicit = run_process(
            "verify", "--construction", "sphere", "--samples", "300", "--seed", "99",
            "--format", "json",
        )
        assert with_env.stdout == explicit.stdout

    def test_malformed_env_seed_is_usage_error(self):
        import os

        env = dict(os.environ, PCRETRACT_SEED="abc")
        p = run_process("verify", "--construction", "sphere", "--samples", "300", env=env)
        assert p.returncode == 2
        assert b"PCRETRACT_SEED" in p.stderr
        assert p.stdout == b""

    def test_negative_env_seed_names_the_variable(self):
        import os

        env = dict(os.environ, PCRETRACT_SEED="-4")
        p = run_process("verify", "--construction", "sphere", "--samples", "300", env=env)
        assert p.returncode == 2
        assert p.stderr == b"error: PCRETRACT_SEED must be >= 0, got -4\n"
        assert p.stdout == b""

    def test_negative_seed_flag_names_the_flag(self):
        p = run_cli("verify", "--construction", "sphere", "--samples", "300", "--seed", "-1")
        assert p.returncode == 2
        assert p.stderr == b"error: --seed must be >= 0, got -1\n"
        assert p.stdout == b""
