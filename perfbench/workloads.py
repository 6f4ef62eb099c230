"""Seeded inputs and request mixes for the three benchmark workloads.

Inputs come from the referee side only: primitive connection polynomials
found with `is_primitive`, streams from `lfsr_stream` / `pointwise_product`
/ `combiner_stream`, and every spectrum written to disk from
`oracle.brute_dft`, never from the `spectral.dft` under test. The same seed
therefore gives byte-identical input files on every commit whose referee
and formats are unchanged.

A workload is a pool of distinct requests plus a schedule: one cycle of the
mix, each pool entry repeated by its weight and shuffled by the seed. The
closed loop in run.py replays the schedule cycle after cycle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from crtspectra.field import build_field, is_primitive
from crtspectra.oracle import brute_dft
from crtspectra.sequences import (AnfCombiner, BitSequence, Lfsr,
                                  combiner_stream, lfsr_stream,
                                  pointwise_product)

# Register degrees of each product, with the weight of its full crt-conv
# in one cycle of the mix. An m-sequence of degree n has period 2^n - 1,
# so (2, 3, 5) is the 3*7*31 product and (3, 10) is 7*1023. The weights
# put p50 inside the 3*2047 crt-conv requests and p90 inside the 7*1023
# ones, both large-N rows, well away from a step between request classes.
CRT_PRODUCTS = {(2, 3, 5): 1, (3, 7): 1, (2, 9): 1, (3, 8): 2, (4, 7): 2,
                (5, 6): 2, (2, 11): 7, (3, 10): 6}
# dft-cli inputs; each gets 2 dft, 1 dft --reduce and 5 dft --point k, so
# that p50 falls inside the --point class (which a faster dft must not
# move) and p90 inside the full transforms of the N = 651..1023 inputs.
DFT_MSEQ = (8, 9, 10)
DFT_PRODUCTS = ((3, 5), (2, 7), (2, 3, 5), (3, 7))
DFT_WEIGHTS = {"dft": 2, "reduce": 1, "point": 5}
# verify-sweep register sets -> seed tuples drawn for each. The four
# N = 1533..1953 pairs make two thirds of the mix, so p50 and p90 both
# fall inside them; 3*7*31 and 7*127 also get one tampered request each.
VERIFY_SETS = {(5, 6): 3, (4, 7): 3, (3, 8): 3, (2, 9): 3, (3, 7): 1,
               (2, 7): 1, (3, 5): 1, (2, 3, 5): 1}
TAMPERED = ((3, 7), (2, 3, 5))
MAJORITY = "1*2+2*3+1*3"
OR2 = "1+2+1*2"
# OR outputs are checked by brute_dft over about 3N/4 ones per index, so
# they run on the pairs with N < 2000 only; that keeps the check of one
# run at a few seconds.
OR_MAX_N = 2000


@dataclass
class Request:
    """One CLI invocation and how its result is judged."""
    rid: str            # unique within the pool
    kind: str           # request class: the unit the mix is built from
    argv: list
    out: str | None     # the --out file, or None when the answer is stdout
    exit: int           # expected exit code
    check: tuple        # (how, *what): see check.py
    weight: int = 1     # repeats of this request in one cycle of the mix


@dataclass
class Workload:
    name: str
    seed: int
    workdir: str
    pool: list = field(default_factory=list)
    schedule: list = field(default_factory=list)  # pool indices, one cycle
    streams: dict = field(default_factory=dict)   # key -> BitSequence
    factor_values: dict = field(default_factory=dict)  # path -> log values
    mix: str = ""


def period(n: int) -> int:
    return (1 << n) - 1


def random_mseq(rng: random.Random, n: int):
    """A degree-n m-sequence: random primitive connection, random state."""
    while True:
        conn = (1 << n) | rng.getrandbits(n) | 1
        if is_primitive(conn):
            break
    state = rng.randrange(1, 1 << n)
    return conn, state, lfsr_stream(Lfsr(conn, state), period(n))


def canonical_root(N: int):
    """GF(2^m) with m = ord_N(2) and its order-N root g^((2^m-1)/N), with
    the exponent, so a header can be written without a discrete log."""
    m, v = 1, 2 % N
    while v != 1 % N:
        v = v * 2 % N
        m += 1
    fld = build_field(m)
    e = fld.group_order // N
    return fld, e, fld.generator ** e


def write_sequence(path: str, s: BitSequence) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"period={s.period}\n{s}\n")


def write_spectrum(path: str, s: BitSequence) -> tuple:
    """Spectrum file of s over its canonical root, computed by brute_dft."""
    fld, e, root = canonical_root(s.period)
    S = brute_dft(s, fld, root)
    lines = [f"N={S.N} field=GF2m({fld.m},0x{fld.modulus:x}) root=g^{e}"]
    lines += [f"{k} {'Z' if d is None else d}" for k, d in enumerate(S.values)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return S.values


def _label(degrees) -> str:
    return "x".join(str(period(n)) for n in degrees)


def _product(streams):
    u = streams[0]
    for s in streams[1:]:
        u = pointwise_product(u, s)
    return u


def _out(wl: Workload, rid: str) -> str:
    return os.path.join(wl.workdir, "out", rid.replace(":", "_") + ".txt")


def _crt_cli(wl: Workload, rng: random.Random) -> None:
    for degrees, weight in CRT_PRODUCTS.items():
        label = _label(degrees)
        seqs, paths = [], []
        for i, n in enumerate(degrees):
            _, _, s = random_mseq(rng, n)
            p = os.path.join(wl.workdir, f"{label}.f{i}.spec")
            wl.factor_values[p] = write_spectrum(p, s)
            seqs.append(s)
            paths.append(p)
        wl.streams[label] = _product(seqs)
        rid = f"crt-conv:{label}"
        wl.pool.append(Request(rid, "crt-conv",
                               ["crt-conv", "--factors", *paths,
                                "--out", _out(wl, rid)],
                               _out(wl, rid), 0, ("spectrum", label),
                               weight))
        rid = f"support-only:{label}"
        wl.pool.append(Request(rid, "support-only",
                               ["crt-conv", "--factors", *paths,
                                "--support-only", "--out", _out(wl, rid)],
                               _out(wl, rid), 0, ("support", *paths), 1))
        if len(degrees) == 3 or wl.streams[label].period < OR_MAX_N:
            anf = MAJORITY if len(degrees) == 3 else OR2
            key = f"{label}:{anf}"
            wl.streams[key] = combiner_stream(
                AnfCombiner.parse(anf, n_vars=len(seqs)), seqs)
            rid = f"combine:{key}"
            wl.pool.append(Request(rid, "combine",
                                   ["combine-spectrum", "--anf", anf,
                                    "--factors", *paths,
                                    "--out", _out(wl, rid)],
                                   _out(wl, rid), 0, ("spectrum", key), 1))
    wl.mix = ("crt-conv weighted per product, 1 crt-conv --support-only "
              "per product, 1 combine-spectrum per product (majority on "
              f"3x7x31, OR on pairs with N < {OR_MAX_N})")


def _dft_cli(wl: Workload, rng: random.Random) -> None:
    inputs = []
    for n in DFT_MSEQ:
        _, _, s = random_mseq(rng, n)
        inputs.append((f"mseq{n}", s))
    for degrees in DFT_PRODUCTS:
        inputs.append((_label(degrees),
                       _product([random_mseq(rng, n)[2] for n in degrees])))
    for label, s in inputs:
        wl.streams[label] = s
        p = os.path.join(wl.workdir, f"{label}.seq")
        write_sequence(p, s)
        rid = f"dft:{label}"
        wl.pool.append(Request(rid, "dft", ["dft", "--in", p,
                                            "--out", _out(wl, rid)],
                               _out(wl, rid), 0, ("spectrum", label),
                               DFT_WEIGHTS["dft"]))
        rid = f"reduce:{label}"
        wl.pool.append(Request(rid, "reduce",
                               ["dft", "--in", p, "--reduce",
                                "--out", _out(wl, rid)],
                               _out(wl, rid), 0, ("reduce", label),
                               DFT_WEIGHTS["reduce"]))
        k = rng.randrange(1, s.period)
        rid = f"point:{label}:{k}"
        wl.pool.append(Request(rid, "point",
                               ["dft", "--in", p, "--point", str(k),
                                "--out", _out(wl, rid)],
                               _out(wl, rid), 0, ("point", label, k),
                               DFT_WEIGHTS["point"]))
    wl.mix = "per input: 2 dft, 1 dft --reduce, 5 dft --point k"


def _verify_sweep(wl: Workload, rng: random.Random) -> None:
    for degrees, tuples in VERIFY_SETS.items():
        label = _label(degrees)
        N = 1
        for n in degrees:
            N *= period(n)
        for rep in range(tuples + (degrees in TAMPERED)):
            lfsrs = []
            for n in degrees:
                conn, state, _ = random_mseq(rng, n)
                lfsrs += ["--lfsr", f"0x{conn:x}:0x{state:x}"]
            if rep < tuples:
                rid = f"verify:{label}:{rep}"
                wl.pool.append(Request(rid, "verify",
                                       ["verify", "theorem1", *lfsrs, "--json",
                                        "--out", _out(wl, rid)],
                                       _out(wl, rid), 0, ("verify", N)))
            else:
                k = rng.randrange(N)
                rid = f"tamper:{label}:{k}"
                wl.pool.append(Request(rid, "tamper",
                                       ["verify", "theorem1", *lfsrs,
                                        "--tamper-index", str(k)],
                                       None, 1, ("tamper", N, k)))
    wl.mix = ("3 seed tuples on each N >= 1533 pair, 1 on each smaller set, "
              "1 tampered request on 7x127 and on 3x7x31")


_BUILDERS = {"crt-cli": _crt_cli, "dft-cli": _dft_cli,
             "verify-sweep": _verify_sweep}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload `name` for `seed` under workdir."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    wl = Workload(name, seed, workdir)
    rng = random.Random(f"{name}/{seed}")
    _BUILDERS[name](wl, rng)
    wl.schedule = [i for i, r in enumerate(wl.pool) for _ in range(r.weight)]
    rng.shuffle(wl.schedule)
    return wl
