"""Command-line front end.

Exit codes: 0 success, 1 verification found mismatches, 2 usage errors,
malformed input files (reported with line/column) or an output path that
cannot be written. Each command returns its exit code and its text; `main`
alone writes that text, to stdout or atomically to --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import warnings
from math import floor, log10

from . import cases
from .bm import berlekamp_massey
from .costs import estimate_crt_breakdown, estimate_direct
from .crtconv import (CrtBasis, combiner_spectrum, product_spectrum,
                      product_spectrum_point, support_indices)
from .field import PRIMITIVE_POLYS, build_field, element_of_order
from .formats import (FormatError, atomic_write, parse_field, parse_sequence,
                      parse_spectrum, read_text, serialize_field,
                      serialize_sequence, serialize_spectrum)
from .gf2poly import parse_poly, poly_str
from .oracle import verify_theorem1
from .sequences import (AnfCombiner, combiner_stream, connection_degree, Lfsr,
                        lfsr_stream, pointwise_product)
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


# --------------------------------------------------------------------------
# subcommand bodies

def _cmd_field_inspect(args) -> tuple[int, str]:
    if args.m is None and args.mod is None:
        lines = ["# default primitive modulus table"]
        lines += (f"{m} 0x{f:x}" for m, f in sorted(PRIMITIVE_POLYS.items()))
        return 0, "\n".join(lines)
    m = args.m
    modulus = parse_poly(args.mod) if args.mod else None
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
    lfsr = Lfsr(parse_poly(args.poly), int(args.seed, 0))
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
    s = parse_sequence_file(args.infile)
    # the file holds one period; BM needs 2L bits and L <= N
    r = berlekamp_massey(s.bits * 2)
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
    factors = [parse_spectrum_file(p) for p in args.factors]
    basis = CrtBasis([f.N for f in factors])
    if args.point is not None:
        d = product_spectrum_point(factors, basis, args.point)
        return 0, f"{args.point} {'Z' if d is None else d}"
    if args.support_only:
        return 0, "\n".join(map(str, support_indices(factors, basis)))
    return 0, serialize_spectrum(product_spectrum(factors, basis))


def _cmd_combine_spectrum(args) -> tuple[int, str]:
    factors = [parse_spectrum_file(p) for p in args.factors]
    basis = CrtBasis([f.N for f in factors])
    f = AnfCombiner.parse(args.anf, n_vars=len(factors))
    return 0, serialize_spectrum(combiner_spectrum(f, factors, basis))


def _parse_lfsr_spec(text: str):
    try:
        conn_s, seed_s = text.split(":", 1)
        return parse_poly(conn_s), int(seed_s, 0)
    except ValueError:
        raise ValueError(
            f"bad --lfsr {text!r}; expected <poly>:<seed> like 0xb:0x1") from None


def _cmd_verify(args) -> tuple[int, str]:
    tamper = args.tamper_index
    if args.bound < 1:
        raise ValueError("--bound must be >= 1")
    if args.random_seeds < 0:
        raise ValueError("--random-seeds must be >= 0")
    if tamper is not None and args.random_seeds:
        raise ValueError("--tamper-index cannot be combined with --random-seeds")
    if args.seed is not None and not args.random_seeds:
        raise ValueError("--seed needs --random-seeds")
    specs = [_parse_lfsr_spec(t) for t in args.lfsr]

    # the seed heads the report, so --out and --json keep a replayable run
    lines = []
    runs = []
    seed = None
    if args.random_seeds:
        seed = args.seed if args.seed is not None else random.randrange(1 << 30)
        rng = random.Random(seed)
        lines.append(json.dumps({"seed": seed}) if args.json else f"seed={seed}")
        # a seed is drawn below 2^m, so each register is checked first
        degrees = [connection_degree(conn) for conn, _ in specs]
        for _ in range(args.random_seeds):
            runs.append([(conn, rng.randrange(1, 1 << m))
                         for (conn, _), m in zip(specs, degrees)])
    else:
        runs.append(specs)

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
            for mm in rep.mismatches:
                lines.append(json.dumps({
                    "lfsrs": label, "index": mm.index,
                    "expected": mm.expected, "actual": mm.actual}))
        else:
            if tamper is None:
                lines.append(f"{rep.summary()}  [{label}]")
            else:
                lines.append(f"{'PASS' if rep.ok else 'FAIL'} N={rep.N}"
                             f" tampered_at={tamper}"
                             f" mismatches={len(rep.mismatches)}")
            for mm in rep.mismatches:
                lines.append(json.dumps({"index": mm.index,
                                         "expected": mm.expected,
                                         "actual": mm.actual}))
    return (0 if overall_ok else 1), "\n".join(lines)


def _cmd_bench(args) -> tuple[int, str]:
    ex = cases.pair_case(cases.LFSR_B, cases.LFSR_C)
    S = ex.spectrum
    k = 108
    n_direct = S.field.m
    est_direct = estimate_direct(S.N, n_direct)
    bk = estimate_crt_breakdown(
        ex.basis.moduli, [f.field.m for f in ex.factors], S.N)
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
    lines.append("| quantity | direct | crt |")
    lines.append("|---|---|---|")
    for q, d, c_ in rows:
        lines.append(f"| {q} | {d} | {c_} |")
    lines.append("")
    lines.append("csv:")
    lines.append("quantity,direct,crt")
    for q, d, c_ in rows:
        lines.append(f"{q.replace(' ', '_')},{d},{c_}")
    return 0, "\n".join(lines)


def report_tables(example: int) -> str:
    """Markdown reproduction of the worked tables; byte-stable on purpose."""
    if example == 1:
        ex = cases.example1()
        A, B = ex.factors
        U = ex.spectrum
        ks = list(range(U.N))
        rows = [
            ("k", [str(k) for k in ks]),
            ("A_(k mod 3)", [_fmt_value(A.points.get(k % 3)) for k in ks]),
            ("B_(k mod 7)", [_fmt_value(B.points.get(k % 7)) for k in ks]),
            ("U_k", [_fmt_value(U.points.get(k)) for k in ks]),
        ]
        lines = [f"# product spectrum at period {U.N}", ""]
        lines.append("| " + " | ".join(["row"] + rows[0][1]) + " |")
        lines.append("|" + "---|" * (U.N + 1))
        for name, cells in rows[1:]:
            lines.append("| " + " | ".join([name] + cells) + " |")
        lines.append("")
        return "\n".join(lines)
    if example == 2:
        lines = []
        for name, S in cases.example2().items():
            lines.append(f"# spectrum of {'.'.join(name)}, period {S.N}")
            lines.append("")
            lines.append("| k | S_k |")
            lines.append("|---|---|")
            for k, d in S.points.items():
                lines.append(f"| {k} | {_fmt_value(d)} |")
            lines.append("")
        return "\n".join(lines)
    raise ValueError(f"no example {example}; choose 1 or 2")


def _cmd_report(args) -> tuple[int, str]:
    if not args.json:
        return 0, report_tables(args.example)
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crtspectra",
        description="spectra of LFSR products via CRT index/exponent maps")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="field inspection")
    fs = p.add_subparsers(dest="field_cmd", required=True)
    pi = fs.add_parser("inspect")
    pi.add_argument("--m", type=int)
    pi.add_argument("--mod")
    pi.add_argument("--out")
    pi.set_defaults(run=_cmd_field_inspect)

    p = sub.add_parser("seq", help="generate and combine sequences")
    ss = p.add_subparsers(dest="seq_cmd", required=True)
    pg = ss.add_parser("gen")
    pg.add_argument("--poly", required=True)
    pg.add_argument("--seed", dest="seed", required=True)
    pg.add_argument("--bits", type=int, required=True)
    pg.add_argument("--out")
    pg.set_defaults(run=_cmd_seq_gen)
    pp = ss.add_parser("product")
    pp.add_argument("--in", dest="inputs", action="append", required=True)
    pp.add_argument("--out")
    pp.set_defaults(run=_cmd_seq_product)
    pc = ss.add_parser("combine")
    pc.add_argument("--anf", required=True)
    pc.add_argument("--in", dest="inputs", action="append", required=True)
    pc.add_argument("--out")
    pc.set_defaults(run=_cmd_seq_combine)

    p = sub.add_parser("bm", help="linear complexity of a sequence file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_bm)

    p = sub.add_parser("dft", help="spectrum of a sequence file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--field")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--point", type=int)
    what.add_argument("--reduce", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_dft)

    p = sub.add_parser("crt-conv", help="product spectrum from factor spectra")
    p.add_argument("--factors", nargs="+", required=True)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--point", type=int)
    what.add_argument("--support-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_crt_conv)

    p = sub.add_parser("combine-spectrum",
                       help="combiner spectrum from factor spectra")
    p.add_argument("--anf", required=True)
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_combine_spectrum)

    p = sub.add_parser("verify", help="oracle-backed end-to-end checks")
    vs = p.add_subparsers(dest="verify_cmd", required=True)
    pv = vs.add_parser("theorem1")
    pv.add_argument("--lfsr", action="append", required=True,
                    metavar="POLY:SEED")
    pv.add_argument("--bound", type=int, default=100_000)
    pv.add_argument("--random-seeds", type=int, default=0,
                    help="also run this many random nonzero seed tuples")
    pv.add_argument("--seed", type=int, default=None,
                    help="seed for --random-seeds; printed so runs replay")
    pv.add_argument("--tamper-index", type=int, default=None,
                    help="inject a fault at this spectral index; the run "
                         "must then FAIL (exercises the mismatch path)")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--out")
    pv.set_defaults(run=_cmd_verify)

    p = sub.add_parser("bench", help="cost comparison tables")
    p.add_argument("--case", default="bc108", choices=("bc108",))
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_bench)

    p = sub.add_parser("report", help="reproduce the worked tables")
    p.add_argument("--example", type=int, required=True, choices=(1, 2))
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
