"""End-to-end runs of the command-line interface, in process."""

import json
import os

import pytest

from crtspectra import formats
from crtspectra.cli import main

import reference_values as rv

HERE = os.path.dirname(os.path.abspath(__file__))


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
    assert open(u).read() == f"period=21\n{rv.PRODUCT_AB}\n"

    code, out, _ = run(capsys, "bm", "--in", u)
    assert code == 0
    assert out.splitlines()[0] == "L=6"
    assert out.splitlines()[1] == "g=0x57 x^6+x^4+x^2+x+1"


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
    body = open(w).read().splitlines()
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
    lines = open(merged).read().splitlines()
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
    assert code == 0 and out == open(GOLDEN_3X2047).read()


def test_default_fields_ignore_crtspectra_poly_table(tmp_path, capsys,
                                                    monkeypatch,
                                                    clear_field_caches):
    # the frozen table is the only source of default moduli; a
    # CRTSPECTRA_POLY_TABLE naming another degree-22 modulus, or a missing
    # file, changes neither the field nor the golden product spectrum
    from crtspectra.field import build_field
    table = tmp_path / "table.txt"
    table.write_text("22 0x400039\n")
    golden = open(GOLDEN_3X2047).read()
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
    golden = open(GOLDEN_3X2047).read()
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
        assert open(out).read() == golden
        calls[name] = len(logs)
    assert calls == {"cold": 1, "warm": 0}


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
    nonzero = [ln for ln in open(w).read().splitlines()[1:]
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
    golden = open(os.path.join(HERE, "golden",
                               "verify_theorem1_31x63.jsonl")).read()
    assert seeded + tampered == golden


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
    assert out == open(os.path.join(HERE, "golden", golden)).read()


def test_report_golden_example1(capsys):
    code, out, _ = run(capsys, "report", "--example", "1")
    assert code == 0
    golden = open(os.path.join(HERE, "golden", "report_example1.md")).read()
    assert out == golden


def test_report_golden_example2(capsys):
    code, out, _ = run(capsys, "report", "--example", "2")
    assert code == 0
    golden = open(os.path.join(HERE, "golden", "report_example2.md")).read()
    assert out == golden


def test_report_json_lines(capsys):
    code, out, _ = run(capsys, "report", "--example", "1", "--json")
    assert code == 0
    recs = [json.loads(x) for x in out.splitlines()]
    assert len(recs) == 21
    assert {r["k"]: r["value"] for r in recs if r["value"] is not None} \
        == rv.TABLE_AB
