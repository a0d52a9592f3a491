"""labctl surface: exit codes, file outputs, determinism, config handling."""

import json
import time

import pytest

from mulab.cli import main


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
        assert blob[:4] == b"MUSV" and blob[4] == 1
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
        import numpy as np

        from mulab.sieves import sieve_phi

        assert run(["sieve", "--n", "500", "--out", str(tmp_path / "mu.bin"),
                    "--phi-out", str(tmp_path / "phi")]) == 0
        assert np.array_equal(np.load(tmp_path / "phi.npy"),
                              sieve_phi(500).values)

    def test_lambda_table(self, tmp_path):
        out = tmp_path / "lam.bin"
        assert run(["sieve", "--n", "1000", "--fn", "lambda",
                    "--out", str(out)]) == 0
        assert out.exists()


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
        cache.write_bytes(b"MUSV\x01" + struct.pack("<QI", 0, zlib.crc32(b"")))
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

    def test_over_budget_exits_4(self, tmp_path, capsys):
        import numpy as np

        from mulab.symbolic_blocks import SymbolSeq, save_symbols

        hdr = save_symbols(
            SymbolSeq(np.zeros(10 ** 5, dtype=np.uint8), 2), tmp_path / "seq.bin"
        )
        assert run(["entropy", "--seq", str(hdr), "--jmax", "5000"]) == 4
        assert "budget" in capsys.readouterr().err

    def test_indicator_over_the_entropy_budget_exits_4_before_scanning(self, capsys):
        t0 = time.perf_counter()
        assert run(["entropy", "--p1", "poly:0,sqrt2", "--p2", "poly:0,sqrt3",
                    "--length", "10000000", "--jmax", "18"]) == 4
        assert time.perf_counter() - t0 < 1.0
        assert "entropy_curve for P=10000000" in capsys.readouterr().err


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

    def test_budget_exit_code(self):
        assert run(["dirichlet", "--theta", "sqrt2,sqrt3,sqrt5",
                    "--q", "8", "--budget", "10"]) == 4


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
