"""Configuration precedence, exit codes, deterministic reports, chain cache."""

import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from qcartan import asympt, braiding, cli, gtcg, repn, sps
from qcartan.numerics import AmbiguousRank, InvariantViolation
from qcartan.qcore import Weight


def test_config_defaults():
    cfg = cli.build_config(["scan"])
    assert cfg.command == "scan"
    assert cfg.N == 2 and cfg.q == (1.5,) and cfg.lam is None
    assert cfg.max_level == 12 and cfg.fmt == "csv"
    assert cfg.weight() == Weight((1,))


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# comment line\n"
        "\n"
        "N = 3\n"
        "q = 1.2, 2.0\n"
        "max_level=6\n"
        "cache_dir = from-file\n"
        "format = json\n"
    )
    cfg = cli.build_config(["scan", "--config", str(conf)])
    assert cfg.N == 3 and cfg.q == (1.2, 2.0) and cfg.max_level == 6
    assert cfg.fmt == "json" and cfg.cache_dir == "from-file"
    # flags override the file
    cfg = cli.build_config(["scan", "--config", str(conf), "--q", "1.5",
                            "--format", "csv"])
    assert cfg.q == (1.5,) and cfg.fmt == "csv" and cfg.N == 3
    # the environment wins for the cache directory
    monkeypatch.setenv(cli.CACHE_ENV_VAR, "from-env")
    cfg = cli.build_config(["scan", "--config", str(conf)])
    assert cfg.cache_dir == "from-env"


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("N=2\nq=1.5\nwhat=ever\n")
    with pytest.raises(cli.ConfigError, match=r"3: unknown key"):
        cli.parse_config_file(str(bad))
    bad.write_text("just words\n")
    with pytest.raises(cli.ConfigError, match="key=value"):
        cli.parse_config_file(str(bad))
    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.parse_config_file(str(tmp_path / "absent.conf"))


def test_config_validation():
    with pytest.raises(cli.ConfigError, match="missing subcommand"):
        cli.build_config([])
    with pytest.raises(cli.ConfigError):
        cli.build_config(["scan", "--unknown-flag", "1"])
    with pytest.raises(cli.ConfigError, match="positive"):
        cli.build_config(["scan", "--q", "-1"])
    with pytest.raises(cli.ConfigError, match="empty"):
        cli.build_config(["scan", "--q", ""])
    with pytest.raises(cli.ConfigError, match="N must be"):
        cli.build_config(["scan", "--N", "1"])
    with pytest.raises(cli.ConfigError, match="max_level"):
        cli.build_config(["scan", "--max-level", "1"])
    with pytest.raises(cli.ConfigError, match="integer"):
        cli.build_config(["scan", "--N", "two"])
    cfg = cli.build_config(["scan", "--N", "3", "--lambda", "1"])
    with pytest.raises(cli.ConfigError, match="coordinates"):
        cfg.weight()
    cfg = cli.build_config(["scan", "--lambda", "0"])
    with pytest.raises(cli.ConfigError, match="dominant"):
        cfg.weight()


def test_exit_codes(monkeypatch, capsys):
    assert cli.main([]) == 3
    assert cli.main(["bogus"]) == 3
    assert cli.main(["scan", "--q", "-2"]) == 3

    def boom(exc):
        def cmd(cfg):
            raise exc
        return cmd

    monkeypatch.setitem(cli._COMMANDS, "scan", boom(InvariantViolation("x")))
    assert cli.main(["scan"]) == 1
    monkeypatch.setitem(cli._COMMANDS, "scan", boom(AmbiguousRank("x")))
    assert cli.main(["scan"]) == 2
    monkeypatch.setitem(cli._COMMANDS, "scan", boom(ValueError("x")))
    assert cli.main(["scan"]) == 3
    capsys.readouterr()


def test_ambiguous_rank_exit_names_level_and_weight_block(tmp_path, capsys):
    # no rounding-noise singular value can clear a gap of 1e300, so the first
    # orbit block with a dropped direction raises
    conf = tmp_path / "strict.conf"
    conf.write_text("gap_ratio_min=1e300\n")
    rc = cli.main(["scan", "--N", "3", "--max-level", "4", "--config",
                   str(conf), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.search(r"orbit of highest weight Weight\(\d+, \d+\), "
                     r"weight block Weight\(-?\d+, -?\d+\)", err), err


def test_scan_reports_are_deterministic(tmp_path, capsys):
    args = ["scan", "--N", "2", "--q", "1.5", "--max-level", "8"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    name = "scan_N2_lam1_q1.5.csv"
    blob1 = (out1 / name).read_bytes()
    blob2 = (out2 / name).read_bytes()
    assert blob1 == blob2
    assert "scan q=1.5" in capsys.readouterr().out

    lines = blob1.decode("ascii").splitlines()
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
    assert meta["schema"] == "1" and meta["command"] == "scan"
    assert meta["f_estimate"].startswith("holds=True")
    assert "t_hat=" in meta["fit_b"]
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "n,a,b,c,a_l,b_l"
    rows = [l.split(",") for l in lines[header_at + 1:]]
    assert [r[0] for r in rows] == [str(n) for n in range(1, 7)]
    # %.17g cells round-trip to the library values bit-for-bit
    table = asympt.conjecture_scan(chain=sps.CartanChain(Weight((1,)), 1.5, 8))
    for i, r in enumerate(rows):
        assert float(r[2]) == table.b[i]


def test_scan_json_format(tmp_path, capsys):
    rc = cli.main(["scan", "--q", "1.5", "--max-level", "6", "--format",
                   "json", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "scan_N2_lam1_q1.5.json").read_text())
    assert doc["meta"]["command"] == "scan"
    assert doc["header"] == ["n", "a", "b", "c", "a_l", "b_l"]
    assert len(doc["rows"]) == 4
    assert float(doc["rows"][0][1]) < 1.0
    capsys.readouterr()


def test_cg_command(tmp_path, capsys):
    rc = cli.main(["cg", "--N", "2", "--q", "1.0,1.5", "--out", str(tmp_path)])
    assert rc == 0
    for q in ("1", "1.5"):
        lines = (tmp_path / f"cg_N2_e4_q{q}.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 8  # (m,0), m <= 4, i in {1, 2}
        assert all(float(r[4]) <= 1e-7 for r in rows)
    capsys.readouterr()


def test_cg_lambda_solves_the_shape_once_per_q(tmp_path, capsys, monkeypatch):
    solves = []
    real = gtcg._top_vectors

    def counted(lam, q, builder, tol):
        solves.append((lam, q))
        return real(lam, q, builder, tol)

    monkeypatch.setattr(gtcg, "_top_vectors", counted)
    rc = cli.main(["cg", "--N", "4", "--lambda", "2,1,1", "--q", "1,1.5",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert solves == [(Weight((2, 1, 1)), 1.0), (Weight((2, 1, 1)), 1.5)]
    for q in ("1", "1.5"):
        lines = (tmp_path / f"cg_N4_e4_q{q}.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert [(r[0], r[1]) for r in rows] == [("4-2-1-0", str(i)) for i in range(1, 5)]
    capsys.readouterr()


def test_qda_command(tmp_path, capsys):
    rc = cli.main(["qda", "--max-level", "6", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "qda_N2_lam1_q1.5.csv").read_text().splitlines()
    head = next(l for l in lines if not l.startswith("#")).split(",")
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 6
    for col in ("arveson_off_diag", "arveson_diag", "cp_exchange",
                "cp_resolution", "intertwiner_unitarity"):
        j = head.index(col)
        assert all(float(r[j]) <= 1e-9 for r in rows)
    capsys.readouterr()


def test_star_command(tmp_path, capsys):
    rc = cli.main(["star", "--max-level", "6", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "star_N2_lam1_q1.5.csv").read_text().splitlines()
    head = next(l for l in lines if not l.startswith("#")).split(",")
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 4
    jd, jb = head.index("defect_h"), head.index("bound_h")
    assert all(float(r[jd]) <= float(r[jb]) for r in rows)
    assert all(float(r[head.index("fixed_point")]) <= 1e-12 for r in rows)
    capsys.readouterr()


def test_star_builds_the_braiding_pair_once_per_chain(tmp_path, capsys,
                                                     monkeypatch):
    calls = []
    r_matrix = braiding.r_matrix
    monkeypatch.setattr(braiding, "r_matrix",
                        lambda V, W: calls.append(1) or r_matrix(V, W))
    rc = cli.main(["star", "--q", "1.5,2", "--max-level", "8",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 4   # sigma_h and sigma_l once per q, not per level
    capsys.readouterr()


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


REFERENCE_CHAINS = ((3, "1.0", 22), (4, "1.0", 10), (2, "1.2", 22),
                    (2, "1.5", 22), (2, "2.0", 18))


@pytest.mark.parametrize("N, q, M", REFERENCE_CHAINS,
                         ids=[f"N{N}-q{q}-M{M}" for N, q, M in REFERENCE_CHAINS])
def test_reports_match_frozen_reference(tmp_path, capsys, N, q, M):
    # every scan and star table of perfbench/reference/: text must be
    # identical and numbers agree to 1e-12 relative + 1e-15 absolute
    lam = "lam" + "-".join(["1"] + ["0"] * (N - 2))
    for command in ("scan", "star"):
        rc = cli.main([command, "--N", str(N), "--q", q, "--max-level", str(M),
                       "--out", str(tmp_path)])
        assert rc == 0
        name = f"{command}_N{N}_{lam}_q{float(q):.17g}.csv"
        got = (tmp_path / name).read_text().splitlines()
        ref = (REFERENCE_DIR / name).read_text().splitlines()
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert _NUMBER.sub("#", g) == _NUMBER.sub("#", r)
            for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(r)):
                x, y = float(a), float(b)
                assert abs(x - y) <= 1e-12 * abs(y) + 1e-15, (name, g, r)
    capsys.readouterr()


def test_star_reports_are_byte_deterministic(tmp_path, capsys):
    # rho's levels have weight multiplicities > 1: block SVDs in every norm
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["star", "--N", "3", "--lambda", "1,1", "--q", "1.5",
                         "--max-level", "5", "--out", str(out)]) == 0
        (path,) = out.iterdir()
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_cache_round_trip(tmp_path, capsys):
    rc = cli.main(["cache", "--q", "1.2", "--max-level", "5",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "bit-exact" in capsys.readouterr().out
    name = f"chain_N2_lam1_q{cli._fmt(1.2)}_M5.qcc"
    path = tmp_path / name
    assert path.exists()
    fresh = sps.CartanChain(Weight((1,)), 1.2, 5)
    loaded = cli.load_chain(str(path))
    assert loaded.q == fresh.q  # %.17g survives the text round trip
    assert cli._chain_mismatch(fresh, loaded) == ""


def test_cache_stores_f_and_derives_e(tmp_path, e_is_k_f_transpose):
    ch = sps.CartanChain(Weight((1, 1)), 1.5, 4)
    path = tmp_path / "c.qcc"
    cli.store_chain(ch, str(path))
    loaded = cli.load_chain(str(path))
    blob = path.read_bytes()
    # magic, version, N, M, len(q), "1.5", rank, lam, level count, 5 dims
    (version,) = struct.unpack_from("<I", blob, 8)
    (count,) = struct.unpack_from("<I", blob, 8 + 12 + 2 + 3 + 4 + 16 + 4 + 8 * 5)
    # per level the weight table and F_1, F_2, then w_0..w_3: no E record
    assert (version, count) == (3, 5 * 3 + 4)
    for a, b in zip(ch.levels, loaded.levels):
        e_is_k_f_transpose(b)
        for i in (1, 2):
            assert cli._same_triplets(a.E[i], b.E[i])


def test_cache_rejects_corruption(tmp_path, monkeypatch):
    ch = sps.CartanChain(Weight((1,)), 1.5, 4)
    path = tmp_path / "c.qcc"
    cli.store_chain(ch, str(path))
    blob = bytearray(path.read_bytes())
    assert cli._chain_mismatch(ch, cli.load_chain(str(path))) == ""

    flipped = bytearray(blob)
    flipped[-5] ^= 0xFF  # inside the last matrix payload
    path.write_bytes(bytes(flipped))
    with pytest.raises(InvariantViolation, match="checksum"):
        cli.load_chain(str(path))

    path.write_bytes(b"NOTMAGIC" + bytes(blob[8:]))
    with pytest.raises(InvariantViolation, match="not a chain cache"):
        cli.load_chain(str(path))

    path.write_bytes(bytes(blob[:-10]))
    with pytest.raises(InvariantViolation):
        cli.load_chain(str(path))

    # the header precedes the body checksum: a file cut inside it, or a q
    # string that is not a positive ASCII number, is refused all the same
    for cut in (8, 12, 20, 22, 24, 30, 40):
        path.write_bytes(bytes(blob[:cut]))
        with pytest.raises(InvariantViolation, match="header truncated"):
            cli.load_chain(str(path))
    assert bytes(blob[20:25]) == b"\x03\x001.5"   # q length, then the q string
    for q in (b"\xff.5", b"1,5", b"-.5"):
        path.write_bytes(bytes(blob[:22]) + q + bytes(blob[25:]))
        with pytest.raises(InvariantViolation, match="unreadable q"):
            cli.load_chain(str(path))

    versioned = bytearray(blob)
    versioned[8] = 9  # format version field
    path.write_bytes(bytes(versioned))
    with pytest.raises(InvariantViolation, match="version"):
        cli.load_chain(str(path))
    for old in (1, 2):   # dense records, then triplet records with E_i
        versioned[8] = old
        path.write_bytes(bytes(versioned))
        with pytest.raises(InvariantViolation, match=f"unsupported cache version {old}"):
            cli.load_chain(str(path))

    # triplet records that are not canonical fail although every CRC matches
    W = ch.w[3]
    rows = W.rows.copy()
    rows[-1] = W.shape[0]
    for bad, why in [
            (repn.SparseMatrix._canonical(W.shape, W.rows[::-1], W.cols[::-1], W.vals[::-1]),
             "strictly increasing"),
            (repn.SparseMatrix._canonical(W.shape, W.rows, W.cols,
                                          np.where(np.arange(W.vals.size) == 1, 0.0, W.vals)),
             "exact zero"),
            (repn.SparseMatrix._canonical(W.shape, rows, W.cols, W.vals), "out of range")]:
        cli.store_chain(sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels,
                                                   ch.w[:3] + [bad]), str(path))
        with pytest.raises(InvariantViolation, match=why):
            cli.load_chain(str(path))

    # a triplet record whose shape disagrees with the header's level
    # dimensions fails although every CRC matches: the triplet records are
    # F_1 of levels 0..4, then w_0..w_3
    real = cli._pack_triplets
    for target, shape, why in ((2, (4, 4), r"F_1 record of level 2 has shape \(4, 4\)"),
                               (7, (7, 4), r"isometry 2 record has shape \(7, 4\)")):
        seen = []

        def pack(S):
            seen.append(S)
            if len(seen) == target + 1:
                S = repn.SparseMatrix._canonical(shape, S.rows, S.cols, S.vals)
            return real(S)

        monkeypatch.setattr(cli, "_pack_triplets", pack)
        cli.store_chain(ch, str(path))
        assert len(seen) == 9
        with pytest.raises(InvariantViolation, match=why):
            cli.load_chain(str(path))


def _set_entry(m, value):
    out = m.copy()
    out[1, 0] = value(out[1, 0])
    return out


@pytest.mark.parametrize("tamper, why", [
    pytest.param(lambda m: _set_entry(m, lambda x: x + 0.5),
                 "table holds an entry that is not a finite integer", id="half"),
    pytest.param(lambda m: _set_entry(m, lambda x: np.nan),
                 "table holds an entry that is not a finite integer", id="nan"),
    pytest.param(lambda m: m[::-1], "row 0 is not the highest weight", id="row0")])
def test_cache_rejects_a_tampered_weight_table(tmp_path, monkeypatch, tamper, why):
    """A weight record with valid CRCs is still held to integers and to the
    highest weight at index 0."""
    ch = sps.CartanChain(Weight((1,)), 1.5, 4)
    path = tmp_path / "c.qcc"
    real, seen = cli._pack_matrix, []

    def pack(m):   # the weight table of level n is the (n+1)-th dense record
        seen.append(m)
        return real(tamper(m) if len(seen) == 3 else m)

    monkeypatch.setattr(cli, "_pack_matrix", pack)
    cli.store_chain(ch, str(path))
    assert len(seen) == ch.M + 1
    with pytest.raises(InvariantViolation, match=f"level 2 weight {why}"):
        cli.load_chain(str(path))


def test_cache_env_dir(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "out"
    envdir = tmp_path / "env"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(envdir))
    rc = cli.main(["cache", "--max-level", "4", "--out", str(outdir)])
    assert rc == 0
    names = os.listdir(envdir)
    assert len(names) == 1 and names[0].endswith(".qcc")
    assert not (outdir / names[0]).exists()
    capsys.readouterr()
