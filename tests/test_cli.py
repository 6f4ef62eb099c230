"""End-to-end runs of the command-line interface, in process, and the
modules each command loads, in a fresh interpreter."""

import argparse
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtspectra import formats, spectral
from crtspectra.cli import _build_parser, _plain, main

import reference_values as rv

HERE = os.path.dirname(os.path.abspath(__file__))


def _read(path, mode="r"):
    """The whole file at path, read and closed."""
    with open(path, mode) as fh:
        return fh.read()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_streams(tmp_path, capsys):
    paths = {}
    for name, (conn, seed), bits in (
            ("a", rv.LFSR_A, 3), ("b", rv.LFSR_B, 7), ("c", rv.LFSR_C, 31)):
        p = str(tmp_path / f"{name}.txt")
        code, _, _ = run(capsys, "seq", "gen", "--poly", hex(conn),
                         "--seed", hex(seed), "--bits", str(bits),
                         "--out", p)
        assert code == 0
        paths[name] = p
    return paths


def test_seq_gen_product_bm(tmp_path, capsys):
    paths = _write_streams(tmp_path, capsys)
    u = str(tmp_path / "u.txt")
    code, _, _ = run(capsys, "seq", "product", "--in", paths["a"],
                     "--in", paths["b"], "--out", u)
    assert code == 0
    assert _read(u) == f"period=21\n{rv.PRODUCT_AB}\n"

    code, out, _ = run(capsys, "bm", "--in", u)
    assert code == 0
    assert out.splitlines()[0] == "L=6"
    assert out.splitlines()[1] == "g=0x57 x^6+x^4+x^2+x+1"


def test_seq_gen_bits_below_1_exits_2(tmp_path, capsys):
    out_file = tmp_path / "o.seq"
    for bits in ("0", "-1"):
        code, out, err = run(capsys, "seq", "gen", "--poly", "0xb", "--seed",
                             "0x1", "--bits", bits, "--out", str(out_file))
        assert (code, out, err) == (2, "", "error: --bits must be >= 1\n")
    assert not out_file.exists()


def test_bm_reads_the_file_as_one_period(tmp_path, capsys):
    # L = 7 > N/2: one period alone would pin only the prefix, L=1 and g=x
    p = tmp_path / "p7.txt"
    p.write_text("period=7\n1000000\n")
    code, out, err = run(capsys, "bm", "--in", str(p))
    assert (code, out, err) == (0, "L=7\ng=0x81 x^7+1\n", "")


def test_seq_combine(tmp_path, capsys):
    paths = _write_streams(tmp_path, capsys)
    w = str(tmp_path / "w.txt")
    code, _, _ = run(capsys, "seq", "combine", "--anf", rv.COMBINER_ANF,
                     "--in", paths["a"], "--in", paths["b"],
                     "--in", paths["c"], "--out", w)
    assert code == 0
    body = _read(w).splitlines()
    assert body[0] == "period=651"
    assert body[1].startswith(rv.COMBINER_PREFIX)


def test_dft_and_crt_conv(tmp_path, capsys):
    paths = _write_streams(tmp_path, capsys)
    specs = {}
    for name in ("a", "b"):
        sp = str(tmp_path / f"{name}.spec")
        code, _, _ = run(capsys, "dft", "--in", paths[name], "--out", sp)
        assert code == 0
        specs[name] = sp

    code, out, _ = run(capsys, "crt-conv", "--factors", specs["a"],
                       specs["b"], "--support-only")
    assert code == 0
    assert [int(x) for x in out.split()] == sorted(rv.TABLE_AB)

    code, out, _ = run(capsys, "crt-conv", "--factors", specs["a"],
                       specs["b"], "--point", "5")
    assert code == 0
    assert out.strip() == "5 9"

    merged = str(tmp_path / "u.spec")
    code, _, _ = run(capsys, "crt-conv", "--factors", specs["a"],
                     specs["b"], "--out", merged)
    assert code == 0
    lines = _read(merged).splitlines()
    assert lines[0].startswith("N=21 field=GF2m(6,0x43) root=g^")
    got = {}
    for ln in lines[1:]:
        k, d = ln.split()
        if d != "Z":
            got[int(k)] = int(d)
    assert got == rv.TABLE_AB


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # one parser serves every call; a flag given once must not stick
    paths = _write_streams(tmp_path, capsys)
    _, full, _ = run(capsys, "dft", "--in", paths["c"])
    code, out, _ = run(capsys, "dft", "--in", paths["c"], "--point", "3")
    assert code == 0 and len(out.splitlines()) == 1
    code, again, _ = run(capsys, "dft", "--in", paths["c"])
    assert code == 0 and again == full
    assert again.startswith("N=31 ") and len(again.splitlines()) == 32

    specs = []
    for name in ("a", "b"):
        specs.append(str(tmp_path / f"{name}.spec"))
        run(capsys, "dft", "--in", paths[name], "--out", specs[-1])
    _, full, _ = run(capsys, "crt-conv", "--factors", *specs)
    code, out, _ = run(capsys, "crt-conv", "--factors", *specs,
                       "--support-only")
    assert code == 0 and [int(k) for k in out.split()] == sorted(rv.TABLE_AB)
    code, again, _ = run(capsys, "crt-conv", "--factors", *specs)
    assert code == 0 and again == full
    assert again.startswith("N=21 ") and len(again.splitlines()) == 22


GOLDEN_3X2047 = os.path.join(HERE, "golden", "crt_conv_3x2047.spec")


def _factors_3x2047(tmp_path, capsys):
    """The factor spectra of the 3*2047 golden, written by seq gen and dft
    into tmp_path."""
    specs = []
    for conn, period in (("0x7", 3), ("0x805", 2047)):
        seq, spec = (str(tmp_path / f"{period}.{ext}") for ext in ("seq", "spec"))
        assert run(capsys, "seq", "gen", "--poly", conn, "--seed", "0x1",
                   "--bits", str(period), "--out", seq)[0] == 0
        assert run(capsys, "dft", "--in", seq, "--out", spec)[0] == 0
        specs.append(spec)
    return specs


def test_crt_conv_golden_3x2047(tmp_path, capsys):
    # the embedded root's header, root=g^..., is pinned by the golden
    specs = _factors_3x2047(tmp_path, capsys)
    code, out, _ = run(capsys, "crt-conv", "--factors", *specs)
    assert code == 0 and out == _read(GOLDEN_3X2047)


def test_default_fields_ignore_crtspectra_poly_table(tmp_path, capsys,
                                                    monkeypatch,
                                                    clear_field_caches):
    # the frozen table is the only source of default moduli; a
    # CRTSPECTRA_POLY_TABLE naming another degree-22 modulus, or a missing
    # file, changes neither the field nor the golden product spectrum
    from crtspectra.field import build_field
    table = tmp_path / "table.txt"
    table.write_text("22 0x400039\n")
    golden = _read(GOLDEN_3X2047)
    for path in (table, tmp_path / "missing.txt"):
        monkeypatch.setenv("CRTSPECTRA_POLY_TABLE", str(path))
        clear_field_caches()
        assert build_field(22).modulus == 0x400003
        specs = _factors_3x2047(tmp_path, capsys)
        code, out, _ = run(capsys, "crt-conv", "--factors", *specs)
        assert code == 0 and out == golden


def test_crt_conv_warm_output_equals_cold(tmp_path, capsys, monkeypatch,
                                          clear_field_caches):
    # the first call starts from empty memos, as a one-shot command does;
    # the second reuses the field, the root image and the header exponent,
    # so it takes no discrete log
    specs = _factors_3x2047(tmp_path, capsys)
    clear_field_caches()
    golden = _read(GOLDEN_3X2047)
    discrete_log, logs = formats.discrete_log, []

    def counted(*args):
        logs.append(args)
        return discrete_log(*args)
    monkeypatch.setattr(formats, "discrete_log", counted)
    calls = {}
    for name in ("cold", "warm"):
        logs.clear()
        out = str(tmp_path / f"{name}.spec")
        assert run(capsys, "crt-conv", "--factors", *specs,
                   "--out", out)[0] == 0
        assert _read(out) == golden
        calls[name] = len(logs)
    assert calls == {"cold": 1, "warm": 0}


def test_dft_warm_output_equals_cold(tmp_path, capsys, clear_field_caches):
    # the first request starts from empty memos, as a one-shot command
    # does, and builds the plans; the second reads them. Over an
    # m-sequence and the 3*7*31 product, whose home is GF(2^30), dft,
    # --reduce and --point at a nonzero point write the same bytes
    paths = _write_streams(tmp_path, capsys)
    u = str(tmp_path / "u.txt")
    assert run(capsys, "seq", "product", "--in", paths["a"], "--in",
               paths["b"], "--in", paths["c"], "--out", u)[0] == 0
    for p, N, m in ((paths["c"], 31, 5), (u, 651, 30)):
        clear_field_caches()
        code, reduced, _ = run(capsys, "dft", "--in", p, "--reduce")
        head, leader = reduced.splitlines()[:2]
        assert code == 0 and head.startswith(f"N={N} ")
        k = leader.split()[0]
        for how in ((), ("--reduce",), ("--point", k)):
            clear_field_caches()
            outs = []
            for name in ("cold", "warm"):
                out = str(tmp_path / f"{name}.txt")
                assert run(capsys, "dft", "--in", p, *how,
                           "--out", out)[0] == 0
                outs.append(_read(out, "rb"))
            assert outs[0] == outs[1]
            if not how:
                assert f" field=GF2m({m},".encode() in outs[0]
            if how[:1] == ("--point",):
                assert outs[0].split()[1] != b"Z"


def test_dft_point_and_reduce(tmp_path, capsys):
    paths = _write_streams(tmp_path, capsys)
    code, out, _ = run(capsys, "dft", "--in", paths["b"], "--point", "3")
    assert (code, out.strip()) == (0, "3 4")

    u = str(tmp_path / "u.txt")
    run(capsys, "seq", "product", "--in", paths["a"], "--in", paths["b"],
        "--out", u)
    code, out, _ = run(capsys, "dft", "--in", u, "--reduce")
    assert code == 0
    assert out.splitlines() == ["N=21 leaders=1", "5 9"]


def test_dft_point_warm_takes_no_root_search(tmp_path, capsys, monkeypatch,
                                            clear_field_caches):
    # the first request starts from empty memos, as a one-shot command
    # does; the second, on the same period, reuses the canonical root
    paths = _write_streams(tmp_path, capsys)
    clear_field_caches()
    element_of_order, searches = spectral.element_of_order, []

    def counted(*args):
        searches.append(args)
        return element_of_order(*args)
    monkeypatch.setattr(spectral, "element_of_order", counted)
    calls, outs = {}, set()
    for name in ("cold", "warm"):
        searches.clear()
        code, out, _ = run(capsys, "dft", "--in", paths["c"], "--point", "3")
        assert code == 0
        outs.add(out)
        calls[name] = len(searches)
    assert calls == {"cold": 1, "warm": 0}
    assert len(outs) == 1


def test_dft_point_outside_root_group_names_the_index(tmp_path, capsys):
    # the same rejection as the full transform, for the point asked for
    seq = str(tmp_path / "s.txt")
    with open(seq, "w") as fh:
        fh.write("period=5\n00011\n")
    for k in (1, 2):
        code, out, err = run(capsys, "dft", "--in", seq, "--point", str(k))
        assert (code, out) == (2, "")
        assert err == (f"error: spectral value at k={k} lies outside the"
                       " cyclic group of the root; no log-form spectrum"
                       " over this root\n")
    code, out, _ = run(capsys, "dft", "--in", seq, "--point", "0")
    assert (code, out.strip()) == (0, "0 Z")


def test_combine_spectrum_roundtrip(tmp_path, capsys):
    paths = _write_streams(tmp_path, capsys)
    specs = []
    for name in ("a", "b", "c"):
        sp = str(tmp_path / f"{name}.spec")
        assert run(capsys, "dft", "--in", paths[name], "--out", sp)[0] == 0
        specs.append(sp)
    w = str(tmp_path / "w.spec")
    code, _, _ = run(capsys, "combine-spectrum", "--anf", rv.COMBINER_ANF,
                     "--factors", *specs, "--out", w)
    assert code == 0
    nonzero = [ln for ln in _read(w).splitlines()[1:]
               if not ln.endswith(" Z")]
    assert len(nonzero) == 31


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "theorem1",
                       "--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4")
    assert code == 0
    assert out.startswith("PASS N=21")

    code, out, _ = run(capsys, "verify", "theorem1", "--json",
                       "--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["ok"] is True and rec["N"] == 21 and rec["mismatches"] == 0


def test_verify_tampered_run_fails(capsys):
    code, out, _ = run(capsys, "verify", "theorem1",
                       "--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4",
                       "--tamper-index", "5")
    assert code == 1
    assert out.splitlines()[0] == "FAIL N=21 tampered_at=5 mismatches=1"
    rec = json.loads(out.splitlines()[1])
    assert rec["index"] == 5

    code, _, err = run(capsys, "verify", "theorem1",
                       "--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4",
                       "--tamper-index", "50")
    assert code == 2
    assert "out of range" in err


def test_verify_tampered_run_honours_output_flags(tmp_path, capsys):
    lfsrs = ("--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4")
    t = tmp_path / "t.json"
    code, out, _ = run(capsys, "verify", "theorem1", *lfsrs,
                       "--tamper-index", "5", "--json", "--out", str(t))
    assert code == 1
    assert out == ""
    recs = [json.loads(line) for line in t.read_text().splitlines()]
    assert len(recs) == 2
    assert recs[0]["ok"] is False and recs[0]["N"] == 21
    assert recs[0]["tampered_at"] == 5 and recs[0]["mismatches"] == 1
    assert recs[1]["index"] == 5

    code, out, _ = run(capsys, "verify", "theorem1", *lfsrs,
                       "--tamper-index", "5", "--json")
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == recs

    code, out, err = run(capsys, "verify", "theorem1", *lfsrs,
                         "--tamper-index", "5", "--random-seeds", "2",
                         "--seed", "1")
    assert code == 2
    assert out == "" and "--random-seeds" in err


def test_verify_seed_without_random_seeds_exits_2(capsys):
    code, out, err = run(capsys, "verify", "theorem1", "--lfsr", "0x7:0x2",
                         "--lfsr", "0xb:0x4", "--seed", "99")
    assert (code, out) == (2, "")
    assert err == "error: --seed needs --random-seeds\n"


def test_verify_plain_text_honours_out(tmp_path, capsys):
    lfsrs = ("--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4")
    code, stdout_text, _ = run(capsys, "verify", "theorem1", *lfsrs)
    assert code == 0
    v = tmp_path / "v.txt"
    code, out, _ = run(capsys, "verify", "theorem1", *lfsrs, "--out", str(v))
    assert code == 0
    assert out == ""
    assert v.read_text() == stdout_text

    code, stdout_text, _ = run(capsys, "verify", "theorem1", *lfsrs,
                               "--tamper-index", "5")
    assert code == 1
    t = tmp_path / "t.txt"
    code, out, _ = run(capsys, "verify", "theorem1", *lfsrs,
                       "--tamper-index", "5", "--out", str(t))
    assert code == 1
    assert out == ""
    assert t.read_text() == stdout_text
    assert t.read_text().splitlines()[0] == (
        "FAIL N=21 tampered_at=5 mismatches=1")


def test_verify_golden_31x63(capsys):
    # six seeded runs and one tampered run of the 31*63 product (N = 1953)
    lfsrs = ("--lfsr", "0x25:0x1", "--lfsr", "0x43:0x1")
    code, seeded, _ = run(capsys, "verify", "theorem1", *lfsrs,
                          "--random-seeds", "6", "--seed", "7", "--json")
    assert code == 0
    code, tampered, _ = run(capsys, "verify", "theorem1", *lfsrs,
                            "--tamper-index", "193", "--json")
    assert code == 1
    golden = _read(os.path.join(HERE, "golden",
                                "verify_theorem1_31x63.jsonl"))
    assert seeded + tampered == golden


def test_verify_golden_7x31x151(capsys):
    # the 7*31*151 product (N = 32767), passing and tampered at 5
    lfsrs = ("--lfsr", "0xb:0x1", "--lfsr", "0x25:0x9",
             "--lfsr", "0xc4d7:0x315f")
    for extra, want, golden in [
            ((), 0, "verify_theorem1_7x31x151.jsonl"),
            (("--tamper-index", "5"), 1,
             "verify_theorem1_7x31x151_tampered.jsonl")]:
        code, out, _ = run(capsys, "verify", "theorem1", *lfsrs, *extra,
                           "--json")
        assert code == want
        assert out == _read(os.path.join(HERE, "golden", golden))


def test_verify_internal_error_exits_3(monkeypatch, capsys):
    import crtspectra.oracle

    def failing_self_check(bits):
        raise AssertionError("BM output failed to regenerate its input")
    monkeypatch.setattr(crtspectra.oracle, "berlekamp_massey",
                        failing_self_check)
    code, out, err = run(capsys, "verify", "theorem1",
                         "--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4")
    assert code == 3
    assert out == ""
    assert err == ("internal error: AssertionError: "
                   "BM output failed to regenerate its input\n")


def test_verify_lister_without_a_spectrum_exits_3(monkeypatch, capsys):
    # the residue lister is the one way a claim is decided and listed; if
    # it finds no spectrum the run is an internal fault, not a verdict
    import crtspectra.oracle
    monkeypatch.setattr(crtspectra.oracle, "_residue_dft",
                        lambda word, f, S: None)
    code, out, err = run(capsys, "verify", "theorem1", "--lfsr", "0x7:0x2",
                         "--lfsr", "0xb:0x4", "--tamper-index", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ArithmeticError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_shared_period_factor_exits_2(capsys):
    code, out, err = run(capsys, "verify", "theorem1",
                         "--lfsr", "0x7:0x2", "--lfsr", "0x13:0x4")
    assert code == 2
    assert out == ""
    assert "moduli 3 and 15 share factor 3" in err


def test_verify_random_seeds_replay(capsys):
    args = ("verify", "theorem1", "--lfsr", "0x7:0x1", "--lfsr", "0xb:0x1",
            "--random-seeds", "3", "--seed", "99")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "seed=99"


def test_verify_negative_random_seeds_exits_2(capsys):
    code, out, err = run(capsys, "verify", "theorem1", "--lfsr", "0xb:0x1",
                         "--random-seeds", "-1")
    assert code == 2
    assert out == ""
    assert "--random-seeds must be >= 0" in err


def test_verify_bound_below_1_exits_2(capsys):
    for bound in ("0", "-5"):
        code, out, err = run(capsys, "verify", "theorem1", "--lfsr",
                             "0xb:0x1", "--bound", bound)
        assert (code, out, err) == (2, "", "error: --bound must be >= 1\n")


def test_verify_random_seeds_checks_connection_before_drawing(capsys):
    # a seed is drawn below 2^m, so a bad register must be refused first,
    # with the message the run without --random-seeds gives
    for lfsrs, msg in (
            (("0x1:0x0",), "connection polynomial must have degree >= 1"),
            (("0x0:0x1",), "connection polynomial must have degree >= 1"),
            (("0x7:0x1", "0x2:0x1"),
             "connection polynomial needs a nonzero constant term")):
        argv = ["verify", "theorem1"]
        for spec in lfsrs:
            argv += ["--lfsr", spec]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {msg}\n")
        code, out, err = run(capsys, *argv, "--random-seeds", "2",
                             "--seed", "3")
        assert (code, out, err) == (2, "", f"error: {msg}\n")


def test_verify_random_seeds_seed_heads_the_report(tmp_path, capsys):
    args = ("verify", "theorem1", "--lfsr", "0x7:0x1", "--lfsr", "0xb:0x1",
            "--random-seeds", "2", "--seed", "99")
    v = tmp_path / "v.txt"
    code, out, _ = run(capsys, *args, "--out", str(v))
    assert code == 0
    assert out == ""
    lines = v.read_text().splitlines()
    assert lines[0] == "seed=99" and len(lines) == 3

    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[0] == {"seed": 99}
    assert len(recs) == 3 and all(r["ok"] for r in recs[1:])

    # a seeded run that fails to start still names its seed
    code, out, err = run(capsys, *args, "--bound", "10")
    assert code == 2
    assert out == ""
    assert "seed=99" in err and "exceeds bound 10" in err


@pytest.mark.parametrize("argv", [
    ("field", "inspect", "--m", "6"),
    ("seq", "gen", "--poly", "0xb", "--seed", "0x1", "--bits", "7"),
    ("seq", "product", "--in", "a", "--in", "b"),
    ("seq", "combine", "--anf", "1*2+1", "--in", "a", "--in", "b"),
    ("bm", "--in", "b"),
    ("dft", "--in", "b"),
    ("crt-conv", "--factors", "a.spec", "b.spec"),
    ("combine-spectrum", "--anf", "1*2+1", "--factors", "a.spec", "b.spec"),
    ("verify", "theorem1", "--lfsr", "0x7:0x2", "--lfsr", "0xb:0x4",
     "--tamper-index", "5"),
    ("bench",),
    ("report", "--example", "1"),
], ids=["field-inspect", "seq-gen", "seq-product", "seq-combine", "bm", "dft",
        "crt-conv", "combine-spectrum", "verify-theorem1", "bench", "report"])
def test_every_command_writes_its_stdout_to_out(tmp_path, capsys, argv):
    # every leaf command takes --out; the file holds what stdout would,
    # with the same exit code (verify's tampered run exits 1)
    paths = _write_streams(tmp_path, capsys)
    for name in ("a", "b"):
        paths[f"{name}.spec"] = str(tmp_path / f"{name}.spec")
        assert run(capsys, "dft", "--in", paths[name],
                   "--out", paths[f"{name}.spec"])[0] == 0
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and out and err == ""
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert target.read_text() == out


@pytest.mark.parametrize("argv, message", [
    (("seq", "gen", "--poly", "0xzz", "--seed", "0x1", "--bits", "7"),
     "bad --poly '0xzz'; expected a polynomial like 0xb or x^3+x+1"),
    (("seq", "gen", "--poly", "0xb", "--seed", "zz", "--bits", "7"),
     "bad --seed 'zz'; expected an integer like 0x1"),
    (("field", "inspect", "--mod", "0xzz"),
     "bad --mod '0xzz'; expected a polynomial like 0xb or x^3+x+1"),
    (("verify", "theorem1", "--lfsr", "0xzz:1"),
     "bad --lfsr '0xzz:1'; expected <poly>:<seed> like 0xb:0x1"),
], ids=["poly", "seed", "mod", "lfsr"])
def test_unparsable_flag_value_names_the_flag(capsys, argv, message):
    # not int()'s "invalid literal ..." with no flag in it
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [("--m", "0"), ("--m", "-1"), ("--m", "33"),
                                  ("--m", "0", "--mod", "0x3")])
def test_field_inspect_names_the_degree_range(capsys, argv):
    # the range check runs before the default-modulus lookup, so a degree
    # with no table entry is not reported as a missing modulus
    m = argv[1]
    assert run(capsys, "field", "inspect", *argv) == (
        2, "", f"error: extension degree {m} out of range 1..32\n")


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "nonexistent" / "x.md"
    code, out, err = run(capsys, "report", "--example", "1",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert f"{target}: cannot write" in err and "Traceback" not in err


def test_out_naming_a_directory_exits_2_and_leaves_no_temp_file(tmp_path,
                                                                 capsys):
    # the temp file is made, then the rename onto the directory fails
    target = tmp_path / "adir"
    target.mkdir()
    code, out, err = run(capsys, "report", "--example", "1",
                         "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {target}: cannot write: Is a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["adir"]
    assert os.listdir(target) == []


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("period=7\n00101x1\n")
    code, _, err = run(capsys, "bm", "--in", str(bad))
    assert code == 2
    assert f"{bad}:2:6" in err

    code, _, err = run(capsys, "dft", "--in", str(tmp_path / "nope.txt"))
    assert code == 2


@pytest.mark.parametrize("period", ("7_0", "+7", " 7"))
def test_period_header_takes_only_decimal_digits(tmp_path, capsys, period):
    # int() would read 7_0 as 70 and accept +7 and " 7"
    bad = tmp_path / "bad.txt"
    bad.write_text(f"period={period}\n{rv.STREAM_B}\n")
    code, out, err = run(capsys, "bm", "--in", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}:1:8: bad period {period!r}\n"


# input errors that no other test reaches: one register's own period past
# --bound (the product's period is checked after it), and the header of an
# empty spectrum file, of one whose first line is blank, and of a period-0
# sequence file; IN names the input file, written with the given text
@pytest.mark.parametrize("argv, text, err", [
    (("verify", "theorem1", "--lfsr", "0x25:0x1", "--bound", "5"), None,
     "error: stream period exceeds bound 5\n"),
    (("crt-conv", "--factors", "IN", "IN"), "",
     "error: IN:1:1: missing spectrum header\n"),
    (("crt-conv", "--factors", "IN", "IN"),
     "\nN=3 field=GF2m(2,0x7) root=g^1\n0 Z\n1 0\n2 0\n",
     "error: IN:1:1: missing spectrum header\n"),
    (("dft", "--in", "IN"), "period=0\n\n",
     "error: IN:1:8: period must be >= 1, got 0\n"),
], ids=["own-period", "empty-spectrum", "blank-header", "period-0"])
def test_input_errors_exit_2_naming_their_position(tmp_path, capsys, argv,
                                                   text, err):
    path = str(tmp_path / "in.txt")
    if text is not None:
        with open(path, "w") as fh:
            fh.write(text)
    argv = [path if a == "IN" else a for a in argv]
    assert run(capsys, *argv) == (2, "", err.replace("IN", path))


def test_dft_field_without_an_element_of_the_period_exits_2(tmp_path,
                                                            capsys):
    seq = tmp_path / "b.txt"
    seq.write_text(f"period=7\n{rv.STREAM_B}\n")
    code, out, err = run(capsys, "dft", "--field", "GF2m m=4 mod=0x13",
                         "--in", str(seq))
    assert code == 2
    assert out == ""
    assert err == "error: GF(2^4) has no element of order 7\n"


def test_even_period_exits_2_naming_the_period(tmp_path, capsys):
    seq = tmp_path / "p6.txt"
    seq.write_text("period=6\n001011\n")
    code, out, err = run(capsys, "dft", "--in", str(seq))
    assert (code, out) == (2, "")
    assert err == ("error: period 6 is even: GF(2^m) has no element of"
                   " even order\n")


def test_verify_even_period_register_exits_2(capsys):
    # x^2+1 cycles with period 2
    code, out, err = run(capsys, "verify", "theorem1", "--lfsr", "0x5:0x1")
    assert (code, out) == (2, "")
    assert err == ("error: period 2 is even: GF(2^m) has no element of"
                   " even order\n")


def test_untrusted_spectrum_exits_2(tmp_path, capsys):
    for name, text in (
            ("huge.spec",    # N would size a 10^15-entry table
             "N=1000000000000000 field=GF2m(2,0x7) root=g^1\n0 Z\n"),
            ("conj.spec",    # d(2) != 2 d(1) mod 3
             "N=3 field=GF2m(2,0x7) root=g^1\n0 Z\n1 0\n2 1\n")):
        p = tmp_path / name
        p.write_text(text)
        code, out, err = run(capsys, "crt-conv", "--factors", str(p))
        assert code == 2
        assert out == ""
        assert f"{p}:" in err and "Traceback" not in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["dft"])            # missing required --in
    assert e.value.code == 2


def test_conflicting_output_flags_exit_2(tmp_path, capsys):
    # each pair asks for two different outputs; neither may be dropped
    paths = _write_streams(tmp_path, capsys)
    spec = str(tmp_path / "b.spec")
    assert run(capsys, "dft", "--in", paths["b"], "--out", spec)[0] == 0
    for argv, flags in (
            (["dft", "--in", paths["b"], "--point", "3", "--reduce"],
             "--reduce: not allowed with argument --point"),
            (["crt-conv", "--factors", spec, "--point", "3",
              "--support-only"],
             "--support-only: not allowed with argument --point")):
        with pytest.raises(SystemExit) as e:
            main(argv)
        out = capsys.readouterr()
        assert e.value.code == 2 and out.out == ""
        assert flags in out.err


def _outcome(capsys, call):
    """What call does: its return value or its SystemExit code, then the
    stdout and stderr it wrote."""
    try:
        result = call()
    except SystemExit as e:
        result = f"exit {e.code}"
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["dft", "-h"], ["verify", "theorem1", "-h"],
    ["frobnicate"], ["field"],
    ["dft"], ["dft", "--in", "x", "--bogus"],
    ["dft", "--in", "x", "--point", "abc"],
    ["dft", "--in", "x", "--point", "3", "--reduce"],
    ["bench", "--case", "nope"], ["report", "--example", "3"],
    ["dft", "--in", "x", "--poi", "3"],
    ["dft", "--in", "x", "--"],
    ["dft", "--in=x"], ["dft", "--in", "x", "--in", "y"],
    ["dft", "--in", "x", "--point", "-3"], ["dft", "--in", ""],
    ["crt-conv", "--factors", "a", "-", "b"],
    ["crt-conv", "--factors", "a", "--point", "3", "--support-only"],
    ["verify", "theorem1", "--lfsr", "0x7:0x1", "--bound=0"],
    ["field", "inspect", "--m", "x"],
    ["dft", "--in"], ["crt-conv", "--factors"],
], ids=" ".join)
def test_leaf_parse_words_help_and_usage_as_the_tree_does(
        tmp_path, capsys, monkeypatch, argv):
    # main parses a command with its leaf's parser alone; with no leaves
    # it parses every argv with the whole tree, _build_parser().parse_args
    # (argv), and its exit code, stdout and stderr must be the same. No
    # file x exists, so a parsed command exits 2 on reading it
    monkeypatch.chdir(tmp_path)
    leaf = _outcome(capsys, lambda: main(argv))
    monkeypatch.setattr(sys, "argv", ["crtspectra", *argv])
    assert _outcome(capsys, main) == leaf      # main(None) reads sys.argv
    monkeypatch.setattr(_build_parser(), "leaves", {})
    assert _outcome(capsys, lambda: main(argv)) == leaf
    assert leaf[0] in ("exit 0", "exit 2", 2)


# words a drawn option may take instead of a value it accepts: the empty
# word, "-" words, a path, and misses of --case's and --example's choices
_MISSES = st.sampled_from(("", "-", "-3", "--", "x", "nope", "3", "0x7:0x1"))


def _value(action):
    """A word action accepts: one of its choices, an int, or a path."""
    if action.choices is not None:
        return st.sampled_from([str(c) for c in action.choices])
    if action.type is int:
        return st.integers(0, 99).map(str)
    return st.sampled_from(("a.seq", "b.spec", "0xb:0x1", "1*2"))


@st.composite
def _leaf_argv(draw, leaf):
    """argv after a command's words: the leaf's required options and some
    others, in a drawn order, each with the values its nargs takes, mostly
    ones it accepts. Now and then help, a repeat or a second option of a
    group is added, a value is a word the option refuses, or an option is
    cut short or joined to its first value by "="."""
    actions = [a for a in leaf._actions if a.default is not argparse.SUPPRESS
               and (a.required or draw(st.booleans()))]
    if not draw(st.integers(0, 3)):   # help, a repeat or a second of a group
        actions.append(draw(st.sampled_from(leaf._actions)))
    argv = []
    for action in draw(st.permutations(actions)):
        option = draw(st.sampled_from(action.option_strings))
        n = {0: 0, None: 1}.get(action.nargs, draw(st.integers(1, 3)))
        values = [draw(_value(action) if draw(st.integers(0, 19))
                       else _MISSES) for _ in range(n)]
        form = draw(st.integers(0, 29))
        if form == 0:
            option = option[:draw(st.integers(2, max(2, len(option) - 1)))]
        elif form == 1 and values:
            option = f"{option}={values.pop(0)}"
        argv += [option, *values]
    return argv


@pytest.mark.parametrize("words", sorted(_build_parser().leaves),
                         ids=" ".join)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_option_table_reads_plain_argv_as_the_tree_does(words, data):
    # whenever the leaf's option table reads argv, its Namespace is the
    # tree's on every dest of the leaf and on run
    ap = _build_parser()
    leaf = ap.leaves[words]
    argv = data.draw(_leaf_argv(leaf))
    args = _plain(leaf, argv)
    if args is not None:
        tree = vars(ap.parse_args([*words, *argv]))
        dests = {a.dest for a in leaf._actions
                 if a.default is not argparse.SUPPRESS} | {"run"}
        assert vars(args) == {dest: tree[dest] for dest in dests}


def test_plain_requests_take_no_argparse_parse(tmp_path, capsys, monkeypatch):
    # a plain request of every leaf runs on its option table alone
    paths = _write_streams(tmp_path, capsys)
    specs = [str(tmp_path / f"{name}.spec") for name in ("a", "b")]
    for name, spec in zip("ab", specs):
        assert run(capsys, "dft", "--in", paths[name], "--out", spec)[0] == 0
    requests = [
        ["field", "inspect", "--m", "5"],
        ["seq", "gen", "--poly", "0xb", "--seed", "0x1", "--bits", "7"],
        ["seq", "product", "--in", paths["a"], "--in", paths["b"]],
        ["seq", "combine", "--anf", "1*2", "--in", paths["a"],
         "--in", paths["b"], "--out", str(tmp_path / "w.seq")],
        ["bm", "--in", paths["c"]],
        ["dft", "--in", paths["c"], "--point", "3"],
        ["crt-conv", "--factors", *specs, "--support-only"],
        ["combine-spectrum", "--anf", "1+2+1*2", "--factors", *specs],
        ["verify", "theorem1", "--lfsr", "0x7:0x1", "--lfsr", "0xb:0x1",
         "--json"],
        ["bench", "--json"],
        ["report", "--example", "1"],
    ]
    leaves = _build_parser().leaves
    assert sorted(leaves) == sorted(
        next(w for w in leaves if tuple(argv[:len(w)]) == w)
        for argv in requests)
    with monkeypatch.context() as m:   # each as the tree reads it
        m.setattr(_build_parser(), "leaves", {})
        expected = [_outcome(capsys, lambda: main(argv)) for argv in requests]

    def refuse(*_):
        raise AssertionError("argparse parsed a plain request")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv, outcome in zip(requests, expected):
        assert _outcome(capsys, lambda: main(argv)) == outcome
        assert outcome[0] == 0


def test_zero_seed_warns_on_one_line(capsys):
    code, out, err = run(capsys, "seq", "gen", "--poly", "0x7", "--seed", "0",
                         "--bits", "3")
    assert (code, out) == (0, "period=3\n000\n")
    assert err == "warning: zero seed: output is all zeros\n"


def test_verify_zero_seed_warns_on_one_line(capsys):
    # the verdict is the same; only the vacuous all-zero stream is named
    code, out, err = run(capsys, "verify", "theorem1",
                         "--lfsr", "0xb:0x0", "--lfsr", "0x7:0x1")
    assert code == 0
    assert out == ("PASS N=3 moduli=[1, 3] points=0/0 L=0 blahut=ok"
                   " conjugacy=ok mismatches=0  [0xb:0x0 0x7:0x1]\n")
    assert err == "warning: zero seed: output is all zeros\n"


def test_field_inspect(capsys):
    code, out, _ = run(capsys, "field", "inspect", "--m", "6")
    assert code == 0
    assert "GF2m m=6 mod=0x43" in out
    assert "order=63" in out
    code, out, _ = run(capsys, "field", "inspect")
    assert code == 0
    assert "8 0x11d" in out      # table row for degree 8


def test_bench_table(capsys):
    code, out, _ = run(capsys, "bench", "--case", "bc108")
    assert code == 0
    assert "| bits required | 15 | 8 |" in out
    assert "quantity,direct,crt" in out
    rows = {}
    for ln in out.splitlines():
        if ln.startswith("measured_field_"):
            q, d, c = ln.split(",")
            rows[q] = (int(d), int(c))
    assert rows["measured_field_mults"] == (276, 78)
    assert rows["measured_field_ops"] == (552, 156)


@pytest.mark.parametrize("argv, golden", [
    (("bench",), "bench_bc108.md"),
    (("bench", "--json"), "bench_bc108.jsonl"),
    (("report", "--example", "2", "--json"), "report_example2.jsonl"),
])
def test_golden_output(capsys, argv, golden):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == _read(os.path.join(HERE, "golden", golden))


@pytest.mark.parametrize("cmd, golden", [
    (("product",), "seq_product_7x31x151.seq"),
    (("combine", "--anf", "1*2+2*3+1*3"), "seq_combine_7x31x151.seq"),
])
def test_seq_golden_7x31x151(tmp_path, capsys, cmd, golden):
    # the product and the majority of three registers, N = 32,767
    regs = []
    for poly, seed, bits in (("0xb", "0x1", 7), ("0x25", "0x9", 31),
                             ("0xc4d7", "0x315f", 151)):
        regs += ["--in", str(tmp_path / f"r{bits}.seq")]
        code, _, _ = run(capsys, "seq", "gen", "--poly", poly, "--seed", seed,
                         "--bits", str(bits), "--out", regs[-1])
        assert code == 0
    out = tmp_path / "out.seq"
    code, _, err = run(capsys, "seq", *cmd, *regs, "--out", str(out))
    assert (code, err) == (0, "")
    assert out.read_bytes() == _read(os.path.join(HERE, "golden", golden),
                                     "rb")


def test_report_golden_example1(capsys):
    code, out, _ = run(capsys, "report", "--example", "1")
    assert code == 0
    golden = _read(os.path.join(HERE, "golden", "report_example1.md"))
    assert out == golden


def test_report_golden_example2(capsys):
    code, out, _ = run(capsys, "report", "--example", "2")
    assert code == 0
    golden = _read(os.path.join(HERE, "golden", "report_example2.md"))
    assert out == golden


def test_report_json_lines(capsys):
    code, out, _ = run(capsys, "report", "--example", "1", "--json")
    assert code == 0
    recs = [json.loads(x) for x in out.splitlines()]
    assert len(recs) == 21
    assert {r["k"]: r["value"] for r in recs if r["value"] is not None} \
        == rv.TABLE_AB


# ---------------------------------------------------------------------------
# cold start: the modules a command loads, seen from a fresh interpreter
# (in this process conftest.py has already imported every module)

SRC = os.path.join(os.path.dirname(HERE), "src")
_RUN_CLI = """
import contextlib, io
from crtspectra.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
if code:
    sys.exit(f"exit {code}")
"""
DFT_MODULES = {"crtspectra", "crtspectra.cli", "crtspectra.field",
               "crtspectra.formats", "crtspectra.gf2poly",
               "crtspectra.sequences", "crtspectra.spectral"}


def _fresh_modules(setup: str, *argv) -> set:
    """The crtspectra modules, and dataclasses and inspect, that are loaded
    once `setup` has run in a fresh interpreter, with argv as sys.argv[1:]."""
    code = (f"import sys\n{setup}\nprint(*(m for m in sys.modules if"
            " m.partition('.')[0] in ('crtspectra', 'dataclasses',"
            " 'inspect')))")
    p = subprocess.run([sys.executable, "-c", code, *argv],
                       env={**os.environ, "PYTHONPATH": SRC},
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    return set(p.stdout.split())


def test_import_crtspectra_loads_no_submodule():
    assert _fresh_modules("import crtspectra") == {"crtspectra"}
    # an unloaded submodule is still found by a from-import
    assert _fresh_modules("from crtspectra import gf2poly") \
        == {"crtspectra", "crtspectra.gf2poly"}


@pytest.mark.parametrize("how", [(), ("--point", "3"), ("--reduce",)])
def test_dft_loads_only_the_dft_modules(tmp_path, capsys, how):
    paths = _write_streams(tmp_path, capsys)
    assert _fresh_modules(_RUN_CLI, "dft", "--in", paths["b"], *how) \
        == DFT_MODULES


@pytest.mark.parametrize("cmd", [("crt-conv",),
                                 ("combine-spectrum", "--anf", "1*2")])
def test_crt_commands_add_only_crtconv(tmp_path, capsys, cmd):
    paths = _write_streams(tmp_path, capsys)
    specs = []
    for name in ("a", "b"):
        specs.append(str(tmp_path / f"{name}.spec"))
        assert run(capsys, "dft", "--in", paths[name],
                   "--out", specs[-1])[0] == 0
    assert _fresh_modules(_RUN_CLI, *cmd, "--factors", *specs) \
        == DFT_MODULES | {"crtspectra.crtconv"}


# the referee commands: plain record classes, so no dataclasses or inspect
REFEREE_MODULES = {
    "bm": {"crtspectra.bm", "crtspectra.records"},
    "verify": {"crtspectra.bm", "crtspectra.crtconv", "crtspectra.oracle",
               "crtspectra.records"},
    "bench": {"crtspectra.cases", "crtspectra.costs", "crtspectra.crtconv",
              "crtspectra.records"},
}


@pytest.mark.parametrize("argv, loads", [
    (("bm", "--in", "b"), "bm"),
    (("verify", "theorem1", "--lfsr", "0x25:0x1", "--lfsr", "0x43:0x1"),
     "verify"),
    (("bench",), "bench"),
    (("report", "--example", "1"), "bench"),
], ids=["bm", "verify", "bench", "report"])
def test_referee_commands_load_no_dataclasses(tmp_path, capsys, argv, loads):
    paths = _write_streams(tmp_path, capsys)
    argv = [paths.get(a, a) for a in argv]
    assert _fresh_modules(_RUN_CLI, *argv) \
        == DFT_MODULES | REFEREE_MODULES[loads]
