"""labctl: command-line front end.

Subcommands: sieve, sum, entropy, pieces, dirichlet, correlate, experiment.
Exit codes: 0 success, 2 usage, 3 I/O, 4 precision/resource, 5 internal.
All flags are long-form.  A `--config` file holds one `key = value` per
line, each key one of the command's flags; the lines enter the parse as
`--key=value` arguments right after the subcommand name, so argparse reads
them as it reads the flags, and the command line's own flags win.  The
file's path is read with the command's own option strings, so an
abbreviation of `--config` resolves as the command's parser resolves it.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from numpy.lib import format as npy_format

from ._util import atomic_write, write_json
from .errors import ParseError, PrecisionError, ResourceBudgetError
from .arrangements import (
    count_report,
    load_arrangement_csv,
    load_arrangement_json,
)
from .experiments import PRESETS, run_preset
from .phases import parse_phase, parse_real_token
from .phase_sums import (
    ap_correlation,
    dirichlet_approx,
    phase_shift_correlation,
    residue_masked,
    unit_weights,
    weighted_average,
    weights_from_table,
)
from .sieves import (
    _DEFAULT_SEGMENT,
    load_cache,
    mertens,
    save_cache,
    sieve_liouville,
    sieve_mobius,
    sieve_phi,
)
from .symbolic_blocks import (
    _check_entropy,
    entropy_curve,
    indicator_set,
    load_symbols,
    write_entropy_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PRECISION = 4
EXIT_INTERNAL = 5

#: `labctl experiment` flags that set the preset parameter of the same name
_PRESET_FLAGS = ("seed", "n", "m", "k", "trials", "jmax", "p", "x", "h")


def _config_args(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The lines of a `key = value` file as `--flag=value` arguments of
    `parser`, each key checked against its flags.  On `experiment` (the
    parser with `--set`) a shorthand key becomes `--set=key=value`, so that
    a `--set` of the command line, which comes later, still wins."""
    flags = {
        a.dest: a.option_strings[0] for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    args: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in flags:
            raise ParseError(
                f"{path}:{lineno}: unknown key {key!r}; allowed: "
                + ", ".join(sorted(flags))
            )
        if key in _PRESET_FLAGS and "set" in flags:
            args.append(f"--set={key}={text.strip()}")
        else:
            args.append(f"{flags[key]}={text.strip()}")
    return args


class _PreParser(argparse.ArgumentParser):
    """A parser that raises where argparse would print usage and exit."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _with_config(argv: list[str], commands: dict[str, argparse.ArgumentParser]) -> list[str]:
    """argv with its `--config` file's arguments right after the subcommand
    name, ahead of the command line's own, so that those still win.  The
    path is found by a parser with the subcommand's option strings, so an
    abbreviation means what it means to the subcommand; any error there is
    left to the full parse to report."""
    if not argv or argv[0] not in commands:
        return argv
    pre = _PreParser(add_help=False)
    for action in commands[argv[0]]._actions:
        if action.option_strings:
            pre.add_argument(*action.option_strings, dest=action.dest,
                             **({"action": "store_true"} if action.nargs == 0 else {}))
    try:
        path = pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv
    if not path:
        return argv
    return [argv[0], *_config_args(path, commands[argv[0]]), *argv[1:]]


def _resolve_weights(spec: str, needed: int):
    """'path.bin' | 'mu:N' | 'lambda:N' | 'one:N', optionally '...%q,a' mask."""
    mask = None
    if "%" in spec:
        spec, _, mask_text = spec.partition("%")
        try:
            q_text, a_text = mask_text.split(",")
            mask = (int(q_text), int(a_text))
        except ValueError:
            raise ParseError(
                f"bad residue mask {mask_text!r}; expected '%q,a'"
            ) from None
    kind, _, arg = spec.partition(":")
    if kind in ("mu", "lambda", "one") and arg:
        n = int(arg)
        if kind == "one":
            w = unit_weights(n)
        elif kind == "mu":
            w = weights_from_table(sieve_mobius(n))
        else:
            w = weights_from_table(sieve_liouville(n))
    else:
        w = weights_from_table(load_cache(spec))
    if w.n_max < needed:
        raise ParseError(
            f"weights {spec!r} cover n <= {w.n_max}, need {needed}"
        )
    if mask is not None:
        w = residue_masked(w, *mask)
    return w


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sieve(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ParseError("--n must be >= 1")
    table = (sieve_liouville(args.n, segment_size=args.segment_size)
             if args.fn == "lambda"
             else sieve_mobius(args.n, segment_size=args.segment_size))
    save_cache(table, args.out)
    size = Path(args.out).stat().st_size
    print(f"{args.fn} table on [1, {args.n}] -> {args.out}")
    print(f"  bytes={size} crc32={table.checksum:08x} "
          f"M({args.n})={mertens(table, args.n)}")
    if args.phi_out:
        phi = sieve_phi(args.n, segment_size=args.segment_size)
        # np.save's bytes without its copy of the table: format 1.0 header, values
        header = io.BytesIO()
        npy_format.write_array_header_1_0(header, npy_format.header_data_from_array_1_0(phi.values))
        # np.save's naming: add .npy unless the name already ends in it
        out = args.phi_out if args.phi_out.endswith(".npy") else args.phi_out + ".npy"
        atomic_write(out, header.getvalue(), memoryview(phi.values).cast("B"))
        print(f"  phi values -> {out}")
    return EXIT_OK


def _cmd_sum(args: argparse.Namespace) -> int:
    phase = parse_phase(args.phase)
    weights = _resolve_weights(args.weights, args.n)
    report = weighted_average(weights, phase, args.n, args.checkpoints)
    last = report.rows[-1]
    print(f"average over [1, {args.n}] of {weights.label} * e({report.phase}):")
    print(f"  {last.real:+.6e} {last.imag:+.6e}i  |.|={last.modulus:.6e}")
    if args.out_csv:
        report.write_csv(args.out_csv)
        print(f"  checkpoints -> {args.out_csv}")
    if args.out_json:
        report.write_json(args.out_json)
        print(f"  metadata -> {args.out_json}")
    return EXIT_OK


def _cmd_entropy(args: argparse.Namespace) -> int:
    if args.seq:
        seq = load_symbols(args.seq)
        label = args.seq
    elif args.p1 and args.p2:
        if args.length is None:
            raise ParseError("--length is required with --p1/--p2")
        # the block counts' arguments and budget, before the indicator scan
        # they would follow; a length below 1 is the scan's own error
        if args.length >= 1:
            _check_entropy(args.length, 2, args.jmax, args.threshold, args.tail_start)
        seq, report = indicator_set(
            parse_phase(args.p1), parse_phase(args.p2), args.length
        )
        label = f"1_{{{args.p1} < {args.p2}}}"
        if report.tie_count:
            print(f"  note: {report.tie_count} near-ties flagged")
    else:
        raise ParseError("need --seq or both --p1 and --p2")
    rows = entropy_curve(seq, args.jmax, args.threshold, args.tail_start)
    print(f"finite-prefix block counts for {label} (P={len(seq)}):")
    for r in rows:
        print(f"  J={r.J:3d} all={r.count_all:8d} reg={r.count_regular:8d} "
              f"eff={r.count_effective:8d} regeff={r.count_reg_effective:8d} "
              f"log|B_J|/J={r.entropy_estimate:.5f}")
    if args.out_csv:
        write_entropy_csv(rows, args.out_csv)
        print(f"  rows -> {args.out_csv}")
    if args.out_json:
        write_json(Path(args.out_json), {
            "schema_version": 1,
            "sequence": label,
            "prefix_len": len(seq),
            "threshold": args.threshold,
            "tail_start": args.tail_start,
            "note": "finite-prefix estimates of a limit quantity",
            "rows": [r.__dict__ for r in rows],
        })
        print(f"  metadata -> {args.out_json}")
    return EXIT_OK


def _cmd_pieces(args: argparse.Namespace) -> int:
    path = Path(args.arrangement)
    arr = (load_arrangement_json(path) if path.suffix == ".json"
           else load_arrangement_csv(path))
    report = count_report(arr)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out_json:
        write_json(Path(args.out_json), {"schema_version": 1, **report})
    return EXIT_OK


def _cmd_dirichlet(args: argparse.Namespace) -> int:
    thetas = [
        parse_real_token(t, f" at position {i} of --theta")
        for i, t in enumerate(args.theta.split(","))
    ]
    wit = dirichlet_approx(thetas, args.q, args.budget)
    print(f"t={wit.t} nearest={wit.nearest} max_err={wit.max_err:.10f} "
          f"(< 1/{args.q})")
    return EXIT_OK


def _cmd_correlate(args: argparse.Namespace) -> int:
    phase = parse_phase(args.phase)
    if args.mode == "ap":
        if args.weights is None:
            raise ParseError("--mode ap needs --weights")
        weights = _resolve_weights(args.weights, args.n + args.h * args.s)
        rep = ap_correlation(weights, phase, args.s, args.h, args.n)
        print(f"progression correlation s={args.s} h={args.h} N={args.n}:")
        print(f"  value={rep.value:.6e} comparison={rep.comparison:.6e}")
        doc = {"mode": "ap", "phase": phase.describe(),
               "weights": weights.label, "s": args.s, "h": args.h,
               "n": args.n, "value": rep.value,
               "comparison": rep.comparison}
    else:
        v = phase_shift_correlation(phase, args.shift, args.n)
        print(f"shift self-correlation shift={args.shift} N={args.n}: "
              f"{v:.6e}")
        doc = {"mode": "shift", "phase": phase.describe(),
               "shift": args.shift, "n": args.n, "value": v}
    if args.out_json:
        write_json(Path(args.out_json), {"schema_version": 1, **doc})
        print(f"  metadata -> {args.out_json}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    # values stay text: run_preset parses each as its default's type
    overrides: dict[str, str] = {}
    for text in args.set or []:
        key, _, value = text.partition("=")
        overrides[key.strip()] = value
    for flag in _PRESET_FLAGS:
        v = getattr(args, flag, None)
        if v is not None:
            overrides[flag] = v
    manifest = run_preset(args.preset, args.out_dir, overrides)
    results = manifest["results"]
    print(f"experiment {args.preset}: "
          f"{'PASS' if results.get('passed', True) else 'FAIL'}")
    for key, value in results.items():
        if key == "passed":
            continue
        text = json.dumps(value) if isinstance(value, (list, dict)) else value
        print(f"  {key} = {text}")
    if args.out_dir:
        print(f"  bundle -> {args.out_dir}/manifest.json")
    return EXIT_OK if results.get("passed", True) else EXIT_INTERNAL


# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """labctl's parser, and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="labctl",
        description="experiments on weighted exponential sums, block "
                    "entropy, and hyperplane pieces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build and persist a packed value table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fn", choices=("mu", "lambda"), default="mu")
    p.add_argument("--segment-size", type=int, default=_DEFAULT_SEGMENT)
    p.add_argument("--phi-out", default=None)
    p.set_defaults(run=_cmd_sieve)

    p = sub.add_parser("sum", help="weighted average of a phase")
    p.add_argument("--weights", required=True,
                   help="cache path or mu:N / lambda:N / one:N, "
                        "optionally %%q,a residue mask")
    p.add_argument("--phase", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checkpoints", type=int, default=20)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(run=_cmd_sum)

    p = sub.add_parser("entropy", help="block families of a symbol sequence")
    p.add_argument("--seq", default=None, help="JSON header of a raw sequence")
    p.add_argument("--p1", default=None, help="phase for 1_{ {p1} < {p2} }")
    p.add_argument("--p2", default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--tail-start", type=int, default=0)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(run=_cmd_entropy)

    p = sub.add_parser("pieces", help="count pieces of an arrangement")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--out-json", default=None)
    p.set_defaults(run=_cmd_pieces)

    p = sub.add_parser("dirichlet", help="simultaneous approximation witness")
    p.add_argument("--theta", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.set_defaults(run=_cmd_dirichlet)

    p = sub.add_parser("correlate", help="correlation functionals")
    p.add_argument("--mode", choices=("ap", "shift"), required=True)
    p.add_argument("--phase", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--h", type=int, default=10)
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-json", default=None)
    p.set_defaults(run=_cmd_correlate)

    p = sub.add_parser("experiment", help="run a named preset")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--out-dir", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    for flag in _PRESET_FLAGS:
        p.add_argument(f"--{flag}", default=None)
    p.set_defaults(run=_cmd_experiment)

    for sp in sub.choices.values():
        sp.add_argument("--config", default=None,
                        help="key = value defaults file")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(argv, commands))
        return args.run(args)
    except ValueError as exc:  # ParseError, json.JSONDecodeError, bad arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionError, ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except OSError as exc:  # CacheFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # InvariantError, or a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
