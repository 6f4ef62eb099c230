"""End-to-end runs of the command-line interface, in process."""

import json
import os

import pytest

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


def test_verify_random_seeds_replay(capsys):
    args = ("verify", "theorem1", "--lfsr", "0x7:0x1", "--lfsr", "0xb:0x1",
            "--random-seeds", "3", "--seed", "99")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "seed=99"


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("period=7\n00101x1\n")
    code, _, err = run(capsys, "bm", "--in", str(bad))
    assert code == 2
    assert f"{bad}:2:6" in err

    code, _, err = run(capsys, "dft", "--in", str(tmp_path / "nope.txt"))
    assert code == 2


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


def test_bad_poly_table_exits_2(tmp_path, capsys, monkeypatch):
    seq = tmp_path / "b.txt"
    seq.write_text("period=7\n0010111\n")
    missing = tmp_path / "missing.txt"
    monkeypatch.setenv("CRTSPECTRA_POLY_TABLE", str(missing))
    code, _, err = run(capsys, "dft", "--in", str(seq))
    assert code == 2
    assert str(missing) in err

    bad = tmp_path / "table.txt"
    bad.write_text("# alt table\n3 0xb\n4 zz\n")
    monkeypatch.setenv("CRTSPECTRA_POLY_TABLE", str(bad))
    code, _, err = run(capsys, "dft", "--in", str(seq))
    assert code == 2
    assert f"{bad}:3:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["dft"])            # missing required --in
    assert e.value.code == 2


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
