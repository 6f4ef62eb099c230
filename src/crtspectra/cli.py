"""Command-line front end.

Exit codes: 0 success, 1 verification found mismatches, 2 usage errors,
malformed input files (reported with line/column) or an output path that
cannot be written. Each command returns its exit code and its text; `main`
alone writes that text, to stdout or atomically to --out.

This module imports at top level only what every command runs (argparse,
formats and the field, polynomial, sequence and spectral layers under
them); a command imports crtconv, bm, oracle, costs, cases, json or random
in its own body, so a one-shot `dft` or `seq` process starts without them.
The per-process memos serve in-process callers: tests, demos, perfbench.

`main` finds a command's leaf, the parser of that one command, by the
command's words at the head of argv, and reads plain argv after them
with the leaf's option table: exact option strings, each followed by its
values as separate words (see `_plain`). The table is derived once from
the leaf's own actions, so every option is declared once, in argparse,
and the Namespace is the one argparse would give. Any other argv, and
help, goes to the whole tree of parsers, which words help and every usage
error: with no command, a group without its leaf, an unknown or
abbreviated option, an `--opt=value` word, or a value argparse refuses.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from math import floor, log10

from .field import PRIMITIVE_POLYS, build_field, element_of_order
from .formats import (FormatError, atomic_write, parse_field, parse_sequence,
                      parse_spectrum, read_text, serialize_field,
                      serialize_sequence, serialize_spectrum)
from .gf2poly import parse_poly, poly_str
from .sequences import (AnfCombiner, bit_bytes, combiner_stream,
                        connection_degree, Lfsr, lfsr_stream,
                        pointwise_product)
from .spectral import coset_reduce, default_field_for_period, dft, dft_point


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        atomic_write(out_path, text)
    except OSError as e:
        raise FormatError(f"cannot write: {e.strerror}", out_path) from None


def _fmt_value(d) -> str:
    return "0" if d is None else f"g^{d}"


def _sig3(x: float) -> str:
    """Three significant figures, plain decimal notation."""
    if x == 0:
        return "0"
    k = 2 - floor(log10(abs(x)))
    r = round(x, k)
    if k <= 0 or r == int(r):
        return str(int(r))
    return f"{r:.{k}f}"


def _md_table(header, rows) -> list[str]:
    """A markdown table's lines: the header, its rule, one line per row."""
    return (["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
            + ["| " + " | ".join(row) + " |" for row in rows])


_POLY = "a polynomial like 0xb or x^3+x+1"


def _flag(flag: str, text: str, parse, expected: str):
    """parse(text), or a ValueError that names the flag, the text given and
    the form expected."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}; expected {expected}") from None


def _lfsr_spec(text: str) -> tuple[int, int]:
    conn_s, seed_s = text.split(":", 1)
    return parse_poly(conn_s), int(seed_s, 0)


# --------------------------------------------------------------------------
# subcommand bodies

def _cmd_field_inspect(args) -> tuple[int, str]:
    if args.m is None and args.mod is None:
        lines = ["# default primitive modulus table"]
        lines += (f"{m} 0x{f:x}" for m, f in sorted(PRIMITIVE_POLYS.items()))
        return 0, "\n".join(lines)
    m = args.m
    modulus = _flag("--mod", args.mod, parse_poly, _POLY) if args.mod else None
    if m is None:
        m = modulus.bit_length() - 1
    fld = build_field(m, modulus)
    facs = (",".join(str(p) for p in fld.group_order_factors)
            if fld.group_order_factors else "1")
    return 0, (f"{serialize_field(fld)}\n"
               f"order={fld.group_order}\n"
               f"order_factors={facs}\n"
               f"generator=0x{fld.generator.bits:x}"
               f" ({poly_str(fld.generator.bits)})")


def _cmd_seq_gen(args) -> tuple[int, str]:
    if args.bits < 1:
        raise ValueError("--bits must be >= 1")
    lfsr = Lfsr(_flag("--poly", args.poly, parse_poly, _POLY),
                _flag("--seed", args.seed, lambda t: int(t, 0),
                      "an integer like 0x1"))
    return 0, serialize_sequence(lfsr_stream(lfsr, args.bits))


def _cmd_seq_product(args) -> tuple[int, str]:
    seqs = [parse_sequence_file(p) for p in args.inputs]
    if len(seqs) < 2:
        raise ValueError("seq product needs at least two --in files")
    return 0, serialize_sequence(functools.reduce(pointwise_product, seqs))


def _cmd_seq_combine(args) -> tuple[int, str]:
    seqs = [parse_sequence_file(p) for p in args.inputs]
    f = AnfCombiner.parse(args.anf, n_vars=len(seqs))
    return 0, serialize_sequence(combiner_stream(f, seqs))


def parse_sequence_file(path: str):
    return parse_sequence(read_text(path), path)


def parse_spectrum_file(path: str):
    return parse_spectrum(read_text(path), path)


def _cmd_bm(args) -> tuple[int, str]:
    from .bm import berlekamp_massey
    s = parse_sequence_file(args.infile)
    # the file holds one period; BM needs 2L bits and L <= N
    r = berlekamp_massey(bit_bytes(s.word, s.period) * 2)
    return 0, (f"L={r.linear_complexity}\n"
               f"g=0x{r.minimal_poly:x} {poly_str(r.minimal_poly)}")


def _cmd_dft(args) -> tuple[int, str]:
    s = parse_sequence_file(args.infile)
    if args.field:
        field = parse_field(args.field, "<--field>")
        root = element_of_order(field, s.period)
    else:
        field, root = default_field_for_period(s.period)
    if args.point is not None:
        d = dft_point(s, root, args.point)
        return 0, f"{args.point} {'Z' if d is None else d}"
    S = dft(s, field, root)
    if args.reduce:
        reps = coset_reduce(S)
        lines = [f"N={S.N} leaders={len(reps)}"]
        lines += (f"{k} {d}" for k, d in reps.items())
        return 0, "\n".join(lines)
    return 0, serialize_spectrum(S)


def _cmd_crt_conv(args) -> tuple[int, str]:
    from .crtconv import (product_spectrum, product_spectrum_point,
                          support_indices)
    factors = [parse_spectrum_file(p) for p in args.factors]
    if args.point is not None:
        d = product_spectrum_point(factors, args.point)
        return 0, f"{args.point} {'Z' if d is None else d}"
    if args.support_only:
        return 0, "\n".join(map(str, support_indices(factors)))
    return 0, serialize_spectrum(product_spectrum(factors))


def _cmd_combine_spectrum(args) -> tuple[int, str]:
    from .crtconv import combiner_spectrum
    factors = [parse_spectrum_file(p) for p in args.factors]
    f = AnfCombiner.parse(args.anf, n_vars=len(factors))
    return 0, serialize_spectrum(combiner_spectrum(f, factors))


def _cmd_verify(args) -> tuple[int, str]:
    import json
    import random
    from .oracle import verify_theorem1
    tamper = args.tamper_index
    if args.bound < 1:
        raise ValueError("--bound must be >= 1")
    if args.random_seeds < 0:
        raise ValueError("--random-seeds must be >= 0")
    if tamper is not None and args.random_seeds:
        raise ValueError("--tamper-index cannot be combined with --random-seeds")
    if args.seed is not None and not args.random_seeds:
        raise ValueError("--seed needs --random-seeds")
    specs = [_flag("--lfsr", t, _lfsr_spec, "<poly>:<seed> like 0xb:0x1")
             for t in args.lfsr]

    # the seed heads the report, so --out and --json keep a replayable run
    lines = []
    runs = [specs]
    seed = None
    if args.random_seeds:
        seed = args.seed if args.seed is not None else random.randrange(1 << 30)
        rng = random.Random(seed)
        lines.append(json.dumps({"seed": seed}) if args.json else f"seed={seed}")
        # a seed is drawn below 2^m, so each register is checked first
        degrees = [connection_degree(conn) for conn, _ in specs]
        runs = [[(conn, rng.randrange(1, 1 << m))
                 for (conn, _), m in zip(specs, degrees)]
                for _ in range(args.random_seeds)]

    overall_ok = True
    for run in runs:
        try:
            rep = verify_theorem1(run, bound=args.bound, tamper_index=tamper)
        except ValueError as e:
            if seed is None:
                raise
            raise ValueError(f"seed={seed}: {e}") from None
        overall_ok = overall_ok and rep.ok
        label = " ".join(f"0x{c:x}:0x{s:x}" for c, s in run)
        if args.json:
            rec = {"lfsrs": label, "ok": rep.ok, "N": rep.N,
                   "support": rep.support_size, "L": rep.linear_complexity,
                   "blahut_ok": rep.blahut_ok,
                   "conjugacy_ok": rep.conjugacy_ok,
                   "mismatches": len(rep.mismatches)}
            if tamper is not None:
                rec["tampered_at"] = tamper
            lines.append(json.dumps(rec))
        elif tamper is None:
            lines.append(f"{rep.summary()}  [{label}]")
        else:
            lines.append(f"{'PASS' if rep.ok else 'FAIL'} N={rep.N}"
                         f" tampered_at={tamper}"
                         f" mismatches={len(rep.mismatches)}")
        for mm in rep.mismatches:
            rec = {"index": mm.index, "expected": mm.expected,
                   "actual": mm.actual}
            lines.append(json.dumps({"lfsrs": label, **rec} if args.json
                                    else rec))
    return (0 if overall_ok else 1), "\n".join(lines)


def _cmd_bench(args) -> tuple[int, str]:
    import json
    from . import cases
    from .costs import estimate_crt_breakdown, estimate_direct
    ex = cases.pair_case(cases.LFSR_B, cases.LFSR_C)
    S = ex.spectrum
    k = 108
    n_direct = S.field.m
    est_direct = estimate_direct(S.N, n_direct)
    bk = estimate_crt_breakdown([f.N for f in ex.factors],
                                [f.field.m for f in ex.factors], S.N)
    m_direct, m_crt = cases.priced_point(ex, k)

    rows = [
        ("bits required", str(n_direct), str(bk.factor_bits)),
        ("field", f"GF(2^{n_direct})",
         " x ".join(f"GF(2^{f.field.m})" for f in ex.factors)),
        ("estimated bit ops", _sig3(est_direct), _sig3(bk.total)),
        ("estimated breakdown", "-",
         " + ".join(_sig3(x) for x in bk.factor_costs)
         + f" + {_sig3(bk.crt_cost)}"),
        ("measured field mults", str(m_direct.mul_count), str(m_crt.mul_count)),
        ("measured field ops", str(m_direct.total()), str(m_crt.total())),
    ]
    if args.json:
        return 0, "\n".join(json.dumps({"quantity": q, "direct": d, "crt": c_})
                            for q, d, c_ in rows)
    lines = [f"# one spectral point of b.c at k={k} (N={S.N})", ""]
    lines += _md_table(("quantity", "direct", "crt"), rows)
    lines += ["", "csv:", "quantity,direct,crt"]
    lines += (f"{q.replace(' ', '_')},{d},{c_}" for q, d, c_ in rows)
    return 0, "\n".join(lines)


def report_tables(example: int) -> str:
    """Markdown reproduction of the worked tables; byte-stable on purpose."""
    from . import cases
    if example == 1:
        ex = cases.example1()
        A, B = ex.factors
        U = ex.spectrum
        ks = range(U.N)
        rows = [[name] + [_fmt_value(S.points.get(k % S.N)) for k in ks]
                for name, S in (("A_(k mod 3)", A), ("B_(k mod 7)", B),
                                ("U_k", U))]
        lines = [f"# product spectrum at period {U.N}", ""]
        lines += _md_table(["row"] + [str(k) for k in ks], rows)
        return "\n".join(lines + [""])
    if example == 2:
        lines = []
        for name, S in cases.example2().items():
            lines += [f"# spectrum of {'.'.join(name)}, period {S.N}", ""]
            lines += _md_table(("k", "S_k"), ((str(k), _fmt_value(d))
                                              for k, d in S.points.items()))
            lines.append("")
        return "\n".join(lines)
    raise ValueError(f"no example {example}; choose 1 or 2")


def _cmd_report(args) -> tuple[int, str]:
    if not args.json:
        return 0, report_tables(args.example)
    import json
    from . import cases
    if args.example == 1:
        S = cases.example1().spectrum
        lines = [json.dumps({"table": "product21", "k": k,
                             "value": S.points.get(k)})
                 for k in range(S.N)]
    else:
        lines = [json.dumps({"table": name, "k": k, "value": d})
                 for name, S in cases.example2().items()
                 for k, d in S.points.items()]
    return 0, "\n".join(lines)


# --------------------------------------------------------------------------

def _leaf(leaves: dict, group, name: str, run,
          **kw) -> argparse.ArgumentParser:
    """A subcommand. `main` calls its `run` and writes the text to its
    `--out`, so every leaf is made here. It is recorded in leaves under its
    command words, the words of its usage line after the program name."""
    p = group.add_parser(name, **kw)
    p.add_argument("--out")
    p.set_defaults(run=run)
    leaves[tuple(p.prog.split()[1:])] = p
    return p


@functools.cache
def _option_table(leaf: argparse.ArgumentParser):
    """What plain argv may hold for leaf, read once from its own actions:
    (options, defaults, required, groups).

    options maps each exact option string to its action and whether the
    option may repeat (append). An action that takes one word, no word or
    nargs="+" words is there; help, which stores nothing, and an action of
    any other kind are not, so argv that names them is not plain.
    defaults is the Namespace argparse starts from: each dest's first
    default, then the leaf's set_defaults. No leaf has a positional, a
    required group or a string default with a type, which argparse reads
    otherwise; tests/test_cli.py's table-versus-tree property fails if one
    is declared."""
    options, defaults = {}, {}
    for a in leaf._actions:
        if a.default is argparse.SUPPRESS:   # help: it stores nothing
            continue
        defaults.setdefault(a.dest, a.default)
        if a.nargs in (None, 0, "+"):
            repeats = isinstance(a, argparse._AppendAction)
            options.update(dict.fromkeys(a.option_strings, (a, repeats)))
    for dest, value in leaf._defaults.items():
        defaults.setdefault(dest, value)
    return (options, defaults, {a for a in leaf._actions if a.required},
            [set(g._group_actions) for g in leaf._mutually_exclusive_groups])


def _plain(leaf: argparse.ArgumentParser, words: list[str]):
    """leaf.parse_args(words), read with leaf's option table, when words are
    plain: each option an exact option string of the leaf, followed by its
    values as separate words, none empty or starting with "-" (nargs="+"
    takes the words up to the next "-" word); each value passing the
    option's type and choices; an append option repeated, any other at
    most once; every required option there, and at most one of each
    mutually exclusive group. None for any other words."""
    options, defaults, required, groups = _option_table(leaf)
    args = argparse.Namespace(**defaults)
    seen = set()
    i, n = 0, len(words)
    while i < n:
        option = words[i]
        action, repeats = options.get(option, (None, False))
        if action is None or (action in seen and not repeats):
            return None
        seen.add(action)
        i += 1
        j = i if action.nargs == 0 else i + 1
        if action.nargs == "+":
            while j < n and not words[j].startswith("-"):
                j += 1
        if j > n:
            return None
        values = []
        for word in words[i:j]:
            if not word or word[0] == "-":
                return None
            value = word
            if action.type is not None:
                try:
                    value = action.type(word)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
            values.append(value)
        action(leaf, args, values[0] if action.nargs is None else values,
               option)
        i = j
    if not required <= seen or any(len(g & seen) > 1 for g in groups):
        return None
    return args


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole command tree. Its `leaves` map each command's words, such
    as ("dft",) or ("verify", "theorem1"), to that command's own parser."""
    ap = argparse.ArgumentParser(
        prog="crtspectra",
        description="spectra of LFSR products via CRT index/exponent maps")
    ap.leaves = leaves = {}
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="field inspection")
    fs = p.add_subparsers(dest="field_cmd", required=True)
    p = _leaf(leaves, fs, "inspect", _cmd_field_inspect)
    p.add_argument("--m", type=int)
    p.add_argument("--mod")

    p = sub.add_parser("seq", help="generate and combine sequences")
    ss = p.add_subparsers(dest="seq_cmd", required=True)
    p = _leaf(leaves, ss, "gen", _cmd_seq_gen)
    p.add_argument("--poly", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--bits", type=int, required=True)
    p = _leaf(leaves, ss, "product", _cmd_seq_product)
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p = _leaf(leaves, ss, "combine", _cmd_seq_combine)
    p.add_argument("--anf", required=True)
    p.add_argument("--in", dest="inputs", action="append", required=True)

    p = _leaf(leaves, sub, "bm", _cmd_bm,
              help="linear complexity of a sequence file")
    p.add_argument("--in", dest="infile", required=True)

    p = _leaf(leaves, sub, "dft", _cmd_dft,
              help="spectrum of a sequence file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--field")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--point", type=int)
    what.add_argument("--reduce", action="store_true")

    p = _leaf(leaves, sub, "crt-conv", _cmd_crt_conv,
              help="product spectrum from factor spectra")
    p.add_argument("--factors", nargs="+", required=True)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--point", type=int)
    what.add_argument("--support-only", action="store_true")

    p = _leaf(leaves, sub, "combine-spectrum", _cmd_combine_spectrum,
              help="combiner spectrum from factor spectra")
    p.add_argument("--anf", required=True)
    p.add_argument("--factors", nargs="+", required=True)

    p = sub.add_parser("verify", help="oracle-backed end-to-end checks")
    vs = p.add_subparsers(dest="verify_cmd", required=True)
    p = _leaf(leaves, vs, "theorem1", _cmd_verify)
    p.add_argument("--lfsr", action="append", required=True,
                   metavar="POLY:SEED")
    p.add_argument("--bound", type=int, default=100_000)
    p.add_argument("--random-seeds", type=int, default=0,
                   help="also run this many random nonzero seed tuples")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --random-seeds; printed so runs replay")
    p.add_argument("--tamper-index", type=int, default=None,
                   help="inject a fault at this spectral index; the run "
                        "must then FAIL (exercises the mismatch path)")
    p.add_argument("--json", action="store_true")

    p = _leaf(leaves, sub, "bench", _cmd_bench,
              help="cost comparison tables")
    p.add_argument("--case", default="bc108", choices=("bc108",))
    p.add_argument("--json", action="store_true")

    p = _leaf(leaves, sub, "report", _cmd_report,
              help="reproduce the worked tables")
    p.add_argument("--example", type=int, required=True, choices=(1, 2))
    p.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _build_parser()
    # the command's words find its leaf; plain argv after them is read with
    # the leaf's option table, and the tree reads any other (see above)
    args = None
    for n in (1, 2):
        leaf = ap.leaves.get(tuple(argv[:n]))
        if leaf:
            args = _plain(leaf, argv[n:])
            break
    if args is None:
        args = ap.parse_args(argv)
    try:
        with warnings.catch_warnings():   # one stderr line per warning
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            code, text = args.run(args)
        _emit(text, args.out)
        return code
    except (FormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a fault of the program, kept apart from bad input (2) and from a
        # verification mismatch (1)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
