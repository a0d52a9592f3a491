"""labctl surface: exit codes, file outputs, determinism, config handling."""

import io
import json
import shlex
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mulab.cli import build_parser, main
from mulab.sieves import sieve_phi


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


class TestSieveCommand:
    def test_builds_cache_with_summary(self, tmp_path, capsys):
        out = tmp_path / "mu.bin"
        assert run(["sieve", "--n", "10000", "--out", str(out)]) == 0
        blob = out.read_bytes()
        assert blob[:4] == b"MUSV" and blob[4] == 2
        text = capsys.readouterr().out
        assert "M(10000)=-23" in text

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        run(["sieve", "--n", "5000", "--out", str(a)])
        run(["sieve", "--n", "5000", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_n_is_usage_error(self, tmp_path):
        assert run(["sieve", "--n", "0", "--out", str(tmp_path / "x")]) == 2

    def test_phi_out_written_as_npy(self, tmp_path):
        assert run(["sieve", "--n", "500", "--out", str(tmp_path / "mu.bin"),
                    "--phi-out", str(tmp_path / "phi")]) == 0
        assert np.array_equal(np.load(tmp_path / "phi.npy"),
                              sieve_phi(500).values)
        # np.save's bytes, written without np.save's copy of the table
        buf = io.BytesIO()
        np.save(buf, sieve_phi(500).values)
        assert (tmp_path / "phi.npy").read_bytes() == buf.getvalue()
        assert np.load(tmp_path / "phi.npy").dtype == np.int64

    def test_lambda_table(self, tmp_path):
        out = tmp_path / "lam.bin"
        assert run(["sieve", "--n", "1000", "--fn", "lambda",
                    "--out", str(out)]) == 0
        assert out.exists()

    def test_lambda_table_prints_the_summatory_liouville_function(self, tmp_path, capsys):
        # L(1000) = sum of lambda(n) for n <= 1000; M(1000) = 2 is mu's
        assert run(["sieve", "--n", "1000", "--fn", "lambda",
                    "--out", str(tmp_path / "lambda.bin")]) == 0
        out = capsys.readouterr().out
        assert "L(1000)=-14" in out and "M(" not in out
        assert run(["sum", "--weights", str(tmp_path / "lambda.bin"), "--phase", "poly:0",
                    "--n", "1000"]) == 0
        assert "of lambda * e(poly:0)" in capsys.readouterr().out


class TestSumCommand:
    def test_checkpoint_row_contract(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code = run(["sum", "--weights", "mu:20000", "--phase", "poly:0,sqrt2",
                    "--n", "20000", "--checkpoints", "20",
                    "--out-csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 21  # header + 20 checkpoint rows

    def test_cache_weights_and_mask(self, tmp_path):
        cache = tmp_path / "mu.bin"
        run(["sieve", "--n", "3000", "--out", str(cache)])
        assert run(["sum", "--weights", f"{cache}%4,1", "--phase", "poly:0",
                    "--n", "3000"]) == 0

    def test_bad_phase_token_is_usage_error(self, capsys):
        assert run(["sum", "--weights", "one:100", "--phase", "poly:0,sqx",
                    "--n", "100"]) == 2
        assert "sqx" in capsys.readouterr().err

    def test_reserved_code_in_cache_is_io_error(self, tmp_path, capsys):
        from mulab.sieves import MobiusTable, save_cache, sieve_mobius

        table = sieve_mobius(10 ** 5)
        packed = table.packed.copy()
        packed[(80_000 - 1) // 4] |= 0b11 << 6  # code 11 at n = 80,000
        cache = tmp_path / "mu.bin"
        save_cache(MobiusTable(table.n_max, packed), cache)  # with a valid CRC
        assert run(["sum", "--weights", str(cache), "--phase", "poly:0",
                    "--n", "100"]) == 3
        assert "reserved code 11 at n=80000" in capsys.readouterr().err

    def test_constant_weights_over_budget_exit_4(self, capsys):
        assert run(["sum", "--weights", "one:1000000000000", "--phase", "poly:0",
                    "--n", "10"]) == 4
        err = capsys.readouterr().err
        assert "1000000000001 bytes" in err and "536870912-byte budget" in err

    def test_concat_spec_without_pieces_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "c.json"
        spec.write_text('{"breakpoints": [0]}')
        assert run(["sum", "--weights", "one:100", "--phase", f"concat:@{spec}",
                    "--n", "100"]) == 2
        assert "'pieces'" in capsys.readouterr().err

    def test_empty_table_cache_is_io_error(self, tmp_path, capsys):
        import struct
        import zlib

        cache = tmp_path / "empty.bin"
        cache.write_bytes(b"MUSV\x02" + struct.pack("<QI", 0, zlib.crc32(b"")))
        assert run(["sum", "--weights", str(cache), "--phase", "poly:0",
                    "--n", "1"]) == 3
        assert "a table needs n_max >= 1" in capsys.readouterr().err

    def test_truncated_cache_is_io_error(self, tmp_path):
        cache = tmp_path / "mu.bin"
        run(["sieve", "--n", "3000", "--out", str(cache)])
        cache.write_bytes(cache.read_bytes()[:-6])
        assert run(["sum", "--weights", str(cache), "--phase", "poly:0",
                    "--n", "100"]) == 3


class TestEntropyCommand:
    def test_indicator_generation(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code = run(["entropy", "--p1", "poly:0,sqrt2", "--p2", "poly:0,sqrt3",
                    "--length", "5000", "--jmax", "8",
                    "--out-csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("J,count_all")
        assert len(lines) == 9

    def test_sequence_file_input(self, tmp_path):
        import numpy as np

        from mulab.symbolic_blocks import SymbolSeq, save_symbols

        hdr = save_symbols(
            SymbolSeq(np.tile([0, 1], 100), 2), tmp_path / "seq.bin"
        )
        assert run(["entropy", "--seq", str(hdr), "--jmax", "4"]) == 0

    def test_missing_inputs_usage(self):
        assert run(["entropy", "--jmax", "4"]) == 2

    @pytest.mark.parametrize("flag", [["--p1", "poly:0,sqrt2"], ["--p2", "poly:0,sqrt3"],
                                      ["--length", "50"]])
    def test_a_phase_flag_beside_seq_exits_2(self, tmp_path, capsys, flag):
        from mulab.symbolic_blocks import SymbolSeq, save_symbols

        hdr = save_symbols(SymbolSeq(np.tile([0, 1], 100), 2), tmp_path / "seq.bin")
        assert run(["entropy", "--seq", str(hdr), "--jmax", "4", *flag]) == 2
        assert f"{flag[0]} is ignored with --seq" in capsys.readouterr().err

    def test_over_budget_exits_4(self, tmp_path, capsys):
        import numpy as np

        from mulab.symbolic_blocks import SymbolSeq, save_symbols

        hdr = save_symbols(
            SymbolSeq(np.zeros(10 ** 5, dtype=np.uint8), 2), tmp_path / "seq.bin"
        )
        assert run(["entropy", "--seq", str(hdr), "--jmax", "5000"]) == 4
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_indicator_length_below_one_exits_2(self, capsys, length):
        assert run(["entropy", "--p1", "poly:0,sqrt2", "--p2", "poly:0,sqrt3",
                    "--length", length, "--jmax", "4"]) == 2
        assert "P must be >= 1" in capsys.readouterr().err

    def test_indicator_over_the_entropy_budget_exits_4_before_scanning(self, capsys):
        t0 = time.perf_counter()
        assert run(["entropy", "--p1", "poly:0,sqrt2", "--p2", "poly:0,sqrt3",
                    "--length", "10000000", "--jmax", "18"]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "entropy_curve for P=10000000" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--threshold", "1"), ("--tail-start", "-1"), ("--tail-start", "4991"),
        ("--jmax", "5001"),
    ])
    def test_bad_counting_arguments_exit_2_before_scanning(self, capsys, flag, value):
        args = {"--jmax": "10", "--threshold": "2", "--tail-start": "0", flag: value}
        assert run(["entropy", "--p1", "poly:0,sqrt2", "--p2", "poly:0,sqrt3",
                    "--length", "5000", *(x for kv in args.items() for x in kv)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error" in err.lower()

    def test_indicator_checks_each_phase_range_before_scanning(self, capsys):
        # the power's time budget reaches the indicator: about 783 s of roots
        t0 = time.perf_counter()
        assert run(["entropy", "--p1", "pow:64/63", "--p2", "poly:0,sqrt2",
                    "--length", "1000000", "--jmax", "4"]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "pow:64/63 up to n=999999 needs about" in capsys.readouterr().err


class TestPiecesCommand:
    def test_crossing_lines_report(self, tmp_path, capsys):
        arr = tmp_path / "two_lines.csv"
        arr.write_text("1,1,0,1,0,1\n0,1,1,1,0,1\n")
        out = tmp_path / "report.json"
        assert run(["pieces", "--arrangement", str(arr),
                    "--out-json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["count"] == 9 and report["bound"] == 9
        assert report["attained"] is True
        assert '"count": 9' in capsys.readouterr().out

    def test_points_over_the_byte_budget_exit_4(self, tmp_path, capsys):
        arr = tmp_path / "points.csv"
        arr.write_text("".join(f"1,1,{i},1\n" for i in range(99_999)))
        assert run(["pieces", "--arrangement", str(arr)]) == 4
        assert "over the 536870912-byte budget" in capsys.readouterr().err

    @pytest.mark.parametrize("name,text", [
        ("zero_denominator.csv", "1,0,0,1,0,1\n"),
        ("zero_denominator.json",
         '{"hyperplanes": [{"normal": ["1/0", "1"], "offset": "0"}]}'),
        ("no_hyperplanes.json", '{"planes": []}'),
        ("empty.csv", "# no rows\n"),
        ("string_normal.json",
         '{"hyperplanes": [{"normal": "12", "offset": "0"}]}'),
    ])
    def test_malformed_arrangement_is_usage_error(self, tmp_path, capsys, name, text):
        arr = tmp_path / name
        arr.write_text(text)
        assert run(["pieces", "--arrangement", str(arr)]) == 2
        assert "internal error" not in capsys.readouterr().err


class TestDirichletCommand:
    def test_witness_line(self, capsys):
        assert run(["dirichlet", "--theta", "1/3", "--q", "3"]) == 0
        assert "t=3" in capsys.readouterr().out

    def test_budget_exit_code(self, capsys):
        # q^L = 300^3 = 2.7e7 is over the 1e7 scan budget
        assert run(["dirichlet", "--theta", "sqrt2,sqrt3,sqrt5",
                    "--q", "300"]) == 4
        assert "q^L = 27000000 exceeds the scan budget 10000000" in capsys.readouterr().err


class TestCorrelateCommand:
    def test_ap_mode(self, capsys):
        assert run(["correlate", "--mode", "ap", "--weights", "mu:2000",
                    "--phase", "poly:0", "--s", "1", "--h", "10",
                    "--n", "1000"]) == 0
        assert "value=" in capsys.readouterr().out

    def test_ap_mode_without_weights_is_usage_error(self, capsys):
        assert run(["correlate", "--mode", "ap", "--phase", "poly:0",
                    "--s", "1", "--h", "10", "--n", "1000"]) == 2
        assert "--weights" in capsys.readouterr().err

    def test_shift_mode(self, capsys):
        assert run(["correlate", "--mode", "shift", "--phase", "poly:0,1/2",
                    "--shift", "1", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "4.0" in out

    @pytest.mark.parametrize("mode, flag", [
        ("shift", ["--weights", "mu:10"]), ("shift", ["--s", "2"]),
        ("shift", ["--h", "3"]), ("ap", ["--shift", "2"]),
    ])
    def test_a_flag_the_mode_ignores_exits_2(self, capsys, mode, flag):
        weights = ["--weights", "mu:100"] if mode == "ap" else []
        assert run(["correlate", "--mode", mode, "--phase", "poly:0", "--n", "10",
                    *weights, *flag]) == 2
        assert f"{flag[0]} is ignored with --mode {mode}" in capsys.readouterr().err


class TestExperimentCommand:
    def test_round_trips_preset(self, tmp_path):
        code = run(["experiment", "round-trips", "--n", "2000",
                    "--out-dir", str(tmp_path / "bundle")])
        assert code == 0
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert manifest["results"]["passed"] is True
        assert manifest["parameters"]["n"] == 2000
        assert "versions" in manifest

    def test_unknown_preset_usage(self, capsys):
        assert run(["experiment", "no-such-thing"]) == 2

    def test_unknown_override_usage(self, capsys):
        assert run(["experiment", "round-trips", "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_example33_small(self, capsys):
        assert run(["experiment", "example33", "--n", "2000"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("q = 3\n")
        assert run(["dirichlet", "--theta", "1/3",
                    "--config", str(cfg)]) == 0
        assert "t=3" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense = 5\n")
        assert run(["dirichlet", "--theta", "1/3", "--q", "3",
                    "--config", str(cfg)]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("q = 5\n")
        assert run(["dirichlet", "--theta", "1/2", "--q", "2",
                    "--config", str(cfg)]) == 0
        assert "t=2" in capsys.readouterr().out

    def test_config_sets_flags_with_defaults(self, tmp_path):
        cfg = tmp_path / "sum.cfg"
        cfg.write_text("checkpoints = 3\n")
        csv_path = tmp_path / "trace.csv"
        argv = ["sum", "--weights", "mu:1000", "--phase", "poly:0",
                "--n", "1000", "--config", str(cfg), "--out-csv", str(csv_path)]
        assert run(argv) == 0
        assert len(csv_path.read_text().splitlines()) == 1 + 3
        assert run(argv + ["--checkpoints", "5"]) == 0  # the flag still wins
        assert len(csv_path.read_text().splitlines()) == 1 + 5

    def test_config_zero_value_applies(self, tmp_path, capsys):
        cfg = tmp_path / "shift.cfg"
        cfg.write_text("shift = 0\n")
        assert run(["correlate", "--mode", "shift", "--phase", "poly:0,1/2",
                    "--n", "64", "--config", str(cfg)]) == 0
        assert "shift=0 " in capsys.readouterr().out

    def test_config_set_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("set = n=1500\n")
        assert run(["experiment", "round-trips", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "bundle")]) == 0
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert manifest["parameters"]["n"] == 1500

    @pytest.mark.parametrize("flags", [["--set", "n=1700"], ["--n", "1700"]])
    def test_command_line_beats_a_config_shorthand_line(self, tmp_path, flags):
        # a config line `n = 1500` is read as `set = n=1500`
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 1500\n")
        assert run(["experiment", "round-trips", "--config", str(cfg), *flags,
                    "--out-dir", str(tmp_path / "bundle")]) == 0
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert manifest["parameters"]["n"] == 1700

    def test_a_shorthand_flag_still_beats_set(self, tmp_path, capsys):
        assert run(["experiment", "value-bound", "--trials", "5",
                    "--set", "trials=9"]) == 0
        assert "trials = 5" in capsys.readouterr().out

    def test_config_bad_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fn = bogus\n")
        assert run(["sieve", "--n", "100", "--out", str(tmp_path / "x.bin"),
                    "--config", str(cfg)]) == 2
        assert "fn" in capsys.readouterr().err

    def test_positional_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("preset = example33\n")
        assert run(["experiment", "round-trips", "--config", str(cfg)]) == 2
        assert "unknown key 'preset'" in capsys.readouterr().err

    def test_an_ambiguous_prefix_is_the_commands_usage_error(self, capsys):
        # --c could be sum's --checkpoints or --config: not a config path
        assert run(["sum", "--c", "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: labctl sum ")
        assert "ambiguous option: --c could match --checkpoints, --config" in err

    def test_a_unique_prefix_of_config_reads_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "sum.cfg"
        cfg.write_text("weights = one:100\nphase = poly:0\nn = 100\n")
        assert run(["sum", "--conf", str(cfg)]) == 0
        assert "average over [1, 100]" in capsys.readouterr().out
        cfg = tmp_path / "sieve.cfg"
        cfg.write_text(f"n = 100\nout = {tmp_path / 'mu.bin'}\n")
        assert run(["sieve", "--c", str(cfg)]) == 0
        assert (tmp_path / "mu.bin").exists()

    def test_config_without_a_path_is_the_commands_usage_error(self, capsys):
        assert run(["sum", "--config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: labctl sum ")
        assert "argument --config: expected one argument" in err

    # (command, config lines that run it alone, the flags it requires)
    FROM_CONFIG = [
        ("sieve", {"n": "100", "out": "{dir}/mu.bin"}, ("n", "out")),
        ("sum", {"weights": "one:100", "phase": "poly:0", "n": "100"},
         ("weights", "phase", "n")),
        ("entropy", {"jmax": "4", "p1": "poly:0,sqrt2", "p2": "poly:0,sqrt3",
                     "length": "200"}, ("jmax",)),
        ("pieces", {"arrangement": "{dir}/lines.csv"}, ("arrangement",)),
        ("dirichlet", {"theta": "1/3", "q": "3"}, ("theta", "q")),
        ("correlate", {"mode": "shift", "phase": "poly:0,1/2", "n": "64"},
         ("mode", "phase", "n")),
    ]

    @pytest.mark.parametrize("command, lines, required", FROM_CONFIG,
                             ids=[case[0] for case in FROM_CONFIG])
    def test_required_flags_come_from_the_config_alone(
            self, tmp_path, capsys, command, lines, required):
        (tmp_path / "lines.csv").write_text("1,1,0,1,0,1\n0,1,1,1,0,1\n")
        cfg = tmp_path / "run.cfg"

        def run_with(keys):
            cfg.write_text("".join(f"{key} = {value.format(dir=tmp_path)}\n"
                                   for key, value in keys.items()))
            return run([command, "--config", str(cfg)])

        assert run_with(lines) == 0
        for flag in required:
            capsys.readouterr()
            assert run_with({k: v for k, v in lines.items() if k != flag}) == 2
            err = capsys.readouterr().err
            assert f"the following arguments are required: --{flag}" in err


class TestMalformedInputs:
    """Each malformed file exits 2 with a message naming the field."""

    @pytest.mark.parametrize("spec, field", [
        ({"breakpoints": [0], "pieces": [5]}, "'pieces'"),
        ({"breakpoints": [0], "pieces": "poly:1/2"}, "'pieces'"),
        ({"breakpoints": None, "pieces": ["poly:1/2"]}, "'breakpoints'"),
        ({"breakpoints": [0, 2.7], "pieces": ["poly:1/2", "poly:1/3"]}, "'breakpoints'"),
        ({"breakpoints": [0, True], "pieces": ["poly:1/2", "poly:1/3"]}, "'breakpoints'"),
        ({"breakpoints": ["0"], "pieces": ["poly:1/2"]}, "'breakpoints'"),
        ({"breakpoints": [0], "pieces": ["concat:@spec.json"]}, "'pieces'"),
    ], ids=["int_piece", "string_pieces", "null_breakpoints", "float_breakpoint",
            "bool_breakpoint", "string_breakpoint", "self_cycle"])
    def test_concat_spec(self, tmp_path, capsys, monkeypatch, spec, field):
        monkeypatch.chdir(tmp_path)  # the cycle names spec.json relative to here
        Path("spec.json").write_text(json.dumps(spec))
        assert run(["sum", "--weights", "one:100", "--phase", "concat:@spec.json",
                    "--n", "100"]) == 2
        assert field in capsys.readouterr().err

    def test_concat_specs_nested_too_deep(self, tmp_path, capsys):
        for i in range(40):
            (tmp_path / f"s{i}.json").write_text(json.dumps(
                {"breakpoints": [0], "pieces": [f"concat:@{tmp_path / f's{i + 1}.json'}"]}))
        (tmp_path / "s40.json").write_text('{"breakpoints": [0], "pieces": ["poly:1/2"]}')
        assert run(["sum", "--weights", "one:100", "--phase",
                    f"concat:@{tmp_path / 's0.json'}", "--n", "100"]) == 2
        assert "'pieces'" in capsys.readouterr().err

    @pytest.mark.parametrize("header, field", [
        ({"length": 4, "alphabet_size": 2}, "'data'"),
        ([4, 2, "seq.bin"], "JSON object"),
        ({"length": 4, "alphabet_size": 2, "data": 5}, "'data'"),
        ({"length": "4", "alphabet_size": 2, "data": "seq.bin"}, "'length'"),
        ({"length": 4, "alphabet_size": 2.0, "data": "seq.bin"}, "'alphabet_size'"),
    ], ids=["no_data", "list_header", "int_data", "string_length", "float_alphabet"])
    def test_symbol_header(self, tmp_path, capsys, header, field):
        (tmp_path / "seq.bin").write_bytes(bytes([0, 1, 1, 0]))
        hdr = tmp_path / "seq.bin.json"
        hdr.write_text(json.dumps(header))
        assert run(["entropy", "--seq", str(hdr), "--jmax", "3"]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}",
                                      b'{"breakpoints": '],
                             ids=["too_deep", "not_utf8", "truncated"])
    @pytest.mark.parametrize("name, argv", [
        ("spec.json", ["sum", "--weights", "one:100", "--phase", "concat:@{path}",
                       "--n", "100"]),
        ("a.json", ["pieces", "--arrangement", "{path}"]),
        ("seq.bin.json", ["entropy", "--seq", "{path}", "--jmax", "3"]),
    ], ids=["concat_spec", "arrangement", "symbol_header"])
    def test_json_that_does_not_decode(self, tmp_path, capsys, name, argv, blob):
        path = tmp_path / name
        path.write_bytes(blob)
        assert run([a.replace("{path}", str(path)) for a in argv]) == 2
        assert f"{path}: not a JSON document" in capsys.readouterr().err

    @pytest.mark.parametrize("hyperplanes, field", [
        ([{"normal": [True], "offset": 0}], "hyperplanes[0].normal"),
        ([{"normal": [1], "offset": 0}, {"normal": [1], "offset": "x"}],
         "hyperplanes[1].offset"),
        ([{"normal": [0, "0/5"], "offset": 1}], "hyperplanes[0].normal"),
    ], ids=["bool_in_normal", "text_offset", "zero_normal"])
    def test_arrangement_scalar(self, tmp_path, capsys, hyperplanes, field):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"hyperplanes": hyperplanes}))
        assert run(["pieces", "--arrangement", str(path)]) == 2
        assert f"{path}: malformed arrangement at {field}" in capsys.readouterr().err

    def test_arrangement_csv_row(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("# crossing lines\n1,1,0,1,0,1\n1,x,0,1,0,1\n")
        assert run(["pieces", "--arrangement", str(path)]) == 2
        assert f"{path}: row 3 holds a field that is not an integer" in capsys.readouterr().err

    def test_power_exponent_above_64_is_refused_at_once(self, capsys):
        t0 = time.perf_counter()
        assert run(["sum", "--weights", "one:100", "--phase", "pow:7/100000",
                    "--n", "100"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "needs num and den <= 64" in capsys.readouterr().err
        assert run(["sum", "--weights", "one:100", "--phase", "pow:64/63", "--n", "100"]) == 0

    def test_power_exponent_reads_as_written(self, tmp_path, capsys):
        out = tmp_path / "sum.json"
        assert run(["sum", "--weights", "one:100", "--phase", "pow:6/4", "--n", "100",
                    "--out-json", str(out)]) == 0
        assert "e(pow:6/4)" in capsys.readouterr().out
        assert json.loads(out.read_text())["phase"] == "pow:6/4"
        assert run(["correlate", "--mode", "shift", "--phase", "pow:6/4", "--shift", "1",
                    "--n", "100000000"]) == 4
        assert "pow:6/4 up to n=100000000 needs about" in capsys.readouterr().err

    def test_power_over_its_time_budget_exits_4_at_once(self, capsys):
        t0 = time.perf_counter()
        assert run(["sum", "--weights", "one:1000000", "--phase", "pow:64/63",
                    "--n", "1000000"]) == 4
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "pow:64/63 up to n=1000000 needs about" in err
        assert "over the 60 s budget" in err

    def test_power_piece_of_a_concat_over_its_time_budget_exits_4_at_once(
            self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"breakpoints": [0, 10], "pieces": ["poly:0", "pow:64/63"]}))
        t0 = time.perf_counter()
        assert run(["sum", "--weights", "one:1000000", "--phase", f"concat:@{spec}",
                    "--n", "1000000"]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "pow:64/63 up to n=1000000 needs about" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing the loaders through labctl: a malformed file is a usage (2) or I/O
# (3) error, never an internal one (5).  Where the input holds phases, exit 4
# may also occur: the documented refusal of a well-formed phase beyond its
# precision budget, such as bracket:99999999999999999999999,sqrt2 at n = 64.

ALLOWED = {0, 2, 3}
PHASE_ALLOWED = ALLOWED | {4}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
tokens = st.one_of(
    st.sampled_from(["0", "1/2", "-3/7", "sqrt2", "sqrt0", "sqrt-1", "sqrt", "1e3",
                     "inf", "nan", "1/0", "", " ", "2.5", "@", "@spec.json"]),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.text(max_size=6),
)
phase_texts = st.one_of(
    st.sampled_from(["poly:1/2,1/3", "poly:0,sqrt2", "pow:3/2",
                     "bracket:sqrt3,sqrt2", "concat:@spec.json"]),
    st.builds(lambda head, toks, sep: head + ":" + sep.join(toks),
              st.sampled_from(["poly", "bracket", "pow", "concat", "table", ""]),
              st.lists(tokens, max_size=4), st.sampled_from([",", "/"])),
    st.text(max_size=12),
)


def fields(valid: dict):
    """`valid` with each field kept, dropped or replaced by a random JSON value."""
    return st.fixed_dictionaries({}, optional={
        key: st.one_of(st.just(value), json_values) for key, value in valid.items()
    }) | json_values


def run_in_tempdir(files: dict, argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            (Path(d) / name).write_text(text)
        return run([a.replace("{dir}", d) for a in argv])


class TestLoaderFuzz:
    @given(fields({"breakpoints": [0, 5], "pieces": ["poly:1/2", "pow:3/2"]}),
           st.lists(phase_texts, max_size=3))
    def test_concat_spec(self, spec, pieces):
        if isinstance(spec, dict) and "pieces" not in spec:
            spec["pieces"] = pieces
        code = run_in_tempdir({"spec.json": json.dumps(spec)},
                              ["sum", "--weights", "one:64", "--phase",
                               "concat:@{dir}/spec.json", "--n", "64"])
        assert code in PHASE_ALLOWED

    @given(phase_texts)
    def test_phase_text(self, text):
        code = run_in_tempdir(
            {"spec.json": '{"breakpoints": [0, 9], "pieces": ["poly:1/2", "pow:3/2"]}'},
            ["sum", "--weights", "one:64", "--phase",
             text.replace("@spec.json", "@{dir}/spec.json"), "--n", "64"])
        assert code in PHASE_ALLOWED

    @given(fields({"length": 4, "alphabet_size": 2, "data": "seq.bin",
                   "schema_version": 1}))
    def test_symbol_header(self, header):
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "seq.bin").write_bytes(bytes([0, 1, 1, 0]))
            (Path(d) / "seq.bin.json").write_text(json.dumps(header))
            code = run(["entropy", "--seq", str(Path(d) / "seq.bin.json"), "--jmax", "3"])
        assert code in ALLOWED

    @given(st.lists(fields({"normal": [1, "1/2"], "offset": "1/3"}), max_size=4)
           | json_values, st.booleans())
    def test_arrangement_json(self, hyperplanes, wrap):
        doc = {"hyperplanes": hyperplanes} if wrap else hyperplanes
        code = run_in_tempdir({"a.json": json.dumps(doc)},
                              ["pieces", "--arrangement", "{dir}/a.json"])
        assert code in ALLOWED

    @given(st.lists(st.lists(tokens, max_size=8), max_size=4))
    def test_arrangement_csv(self, rows):
        text = "".join(",".join(row) + "\n" for row in rows)
        code = run_in_tempdir({"a.csv": text}, ["pieces", "--arrangement", "{dir}/a.csv"])
        assert code in ALLOWED


def test_readme_examples_parse():
    # every labctl line of the README's CLI block parses with today's flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip()
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line]
    assert len(commands) == 7 and all(argv[0] == "labctl" for argv in commands)
    parser = build_parser()[0]
    for argv in commands:
        parser.parse_args(argv[1:])  # a usage error exits and fails the test
