"""Command-line driver: scans, verification grids, residual suites, cache.

Subcommands
-----------
scan   -- conjecture table (a, b, c and their duals) + rate fits + the
          isometry-factorization inequality check
cg     -- closed-form vs numeric Clebsch-Gordan verification grid
qda    -- per-level operator-relation residuals + unitarity of the
          monomial-to-shift-word intertwiner
star   -- star-commutation defect along mu = n*lam
cache  -- build a chain, store it, load it back, verify bit-exactness,
          then replay the module checks and coassociativity

Configuration is a flat key=value file with CLI-flag overrides; unknown
keys are rejected.  Output is deterministic: no timestamps, no RNG, and
every float is printed with %.17g.  Exit codes: 0 success, 1 invariant
violation, 2 ambiguous rank certificate, 3 configuration error.

Cache file layout (all integers little-endian):
    8s    magic b"QCCACHE\\0"
    u32   format version (3; versions 1 and 2 are refused)
    u32   N
    u32   M
    u16   len(q_str); q_str ascii, %.17g (bit-exact float round trip)
    u32   rank; rank * i64 chain-weight coordinates
    u32   level count (M+1); per level u64 dim
    u32   payload record count
    u32   crc32 of the whole payload section
then per record: u64 nbytes, u32 crc32, u64 rows, u64 cols, and the data.
Records are, in order: per level n = 0..M the weight table then F_i for
i = 1..N-1; then the isometries w_0..w_{M-1}.  No E_i is stored: a loaded
level derives E_i = K_i F_i^T (repn.QModule.E).  The weight table is a dense
record: rows * cols float64 in column-major order.  Every other record is a
triplet record of a repn.SparseMatrix: nnz i64 row indices, nnz i64 column
indices, then nnz float64 values (nbytes = 24 nnz), in canonical order.
Loading checks each triplet record before building from it: indices in
range, keys strictly increasing row-major, no exact zeros.  Writes are
atomic (temp file + fsync + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import tempfile
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .qcore import Weight, check_q
from .numerics import (AmbiguousRank, DEFAULT_TOL, InvariantViolation,
                       ToleranceProfile)
from .repn import QModule, SparseMatrix, check_module
from .sps import CartanChain
from . import asympt, gtcg, qda

CACHE_MAGIC = b"QCCACHE\x00"
CACHE_VERSION = 3
CACHE_ENV_VAR = "QCARTAN_CACHE_DIR"
SCHEMA = "1"


class ConfigError(Exception):
    """Raised for any malformed configuration, flag, or input file."""


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Validated parameters for one command invocation."""

    command: str = ""
    N: int = 2
    q: tuple = (1.5,)
    lam: tuple = None          # fundamental coordinates; None = command default
    max_level: int = 12
    outdir: str = "."
    cache_dir: str = None
    fmt: str = "csv"
    max_entry: int = 4
    nullspace_rel_tol: float = DEFAULT_TOL.nullspace_rel_tol
    gap_ratio_min: float = DEFAULT_TOL.gap_ratio_min
    identity_tol: float = DEFAULT_TOL.identity_tol

    def tolerance(self) -> ToleranceProfile:
        return ToleranceProfile(self.nullspace_rel_tol, self.gap_ratio_min,
                                self.identity_tol)

    def weight(self) -> Weight:
        """Chain weight; defaults to the defining weight omega_1."""
        coords = self.lam if self.lam is not None else (1,) + (0,) * (self.N - 2)
        if len(coords) != self.N - 1:
            raise ConfigError(
                f"lambda needs {self.N - 1} coordinates for N={self.N}, got {coords}")
        w = Weight(tuple(coords))
        if not w.is_dominant or all(c == 0 for c in w.coords):
            raise ConfigError(f"lambda must be dominant and nonzero, got {coords}")
        return w


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}")


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}")


def _parse_float_list(s: str) -> tuple:
    return tuple(_parse_float(p) for p in s.split(",") if p != "")


def _parse_int_list(s: str) -> tuple:
    return tuple(_parse_int(p) for p in s.split(",") if p != "")


def _parse_format(s: str) -> str:
    if s not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {s!r}")
    return s


# config key -> (RunConfig field, parser, command-line flag or None)
CONFIG_KEYS = {
    "N": ("N", _parse_int, "--N"),
    "q": ("q", _parse_float_list, "--q"),
    "lambda": ("lam", _parse_int_list, "--lambda"),
    "max_level": ("max_level", _parse_int, "--max-level"),
    "outdir": ("outdir", str, "--out"),
    "cache_dir": ("cache_dir", str, None),
    "format": ("fmt", _parse_format, "--format"),
    "max_entry": ("max_entry", _parse_int, None),
    "nullspace_rel_tol": ("nullspace_rel_tol", _parse_float, None),
    "gap_ratio_min": ("gap_ratio_min", _parse_float, None),
    "identity_tol": ("identity_tol", _parse_float, None),
}


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; '#' comments; unknown keys rejected."""
    updates = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name, parser, _ = CONFIG_KEYS[key]
        updates[name] = parser(value)
    return updates


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


def build_config(argv: list) -> RunConfig:
    parser = _Parser(prog="qcartan", add_help=True)
    sub = parser.add_subparsers(dest="command")
    for name in ("scan", "cg", "qda", "star", "cache"):
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--config", default=None)
        for name, _, flag in CONFIG_KEYS.values():
            if flag:
                p.add_argument(flag, dest=name, default=None)
    args = parser.parse_args(argv)
    if args.command is None:
        raise ConfigError("missing subcommand (scan|cg|qda|star|cache)")

    cfg = RunConfig(command=args.command)
    if args.config is not None:
        cfg = replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for name, parse, flag in CONFIG_KEYS.values():
        if flag and getattr(args, name) is not None:
            overrides[name] = parse(getattr(args, name))
    cfg = replace(cfg, **overrides)
    env_cache = os.environ.get(CACHE_ENV_VAR)
    if env_cache:
        cfg = replace(cfg, cache_dir=env_cache)

    if cfg.N < 2:
        raise ConfigError(f"N must be >= 2, got {cfg.N}")
    if not cfg.q:
        raise ConfigError("q list is empty")
    if any(v <= 0 for v in cfg.q):
        raise ConfigError(f"q values must be positive, got {cfg.q}")
    if cfg.max_level < 2:
        raise ConfigError(f"max_level must be >= 2, got {cfg.max_level}")
    if cfg.max_entry < 1:
        raise ConfigError(f"max_entry must be >= 1, got {cfg.max_entry}")
    return cfg


# ---------------------------------------------------------------------------
# deterministic report emission
# ---------------------------------------------------------------------------

def _atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta(cfg: RunConfig, q: float, extra: dict = None) -> dict:
    m = {"schema": SCHEMA, "command": cfg.command, "N": str(cfg.N),
         "q": _fmt(q), "max_level": str(cfg.max_level),
         "nullspace_rel_tol": _fmt(cfg.nullspace_rel_tol),
         "gap_ratio_min": _fmt(cfg.gap_ratio_min),
         "identity_tol": _fmt(cfg.identity_tol)}
    if extra:
        m.update(extra)
    return m


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    return str(x)


def write_report(path: str, meta: dict, header: list, rows: list,
                 fmt: str) -> None:
    if fmt == "csv":
        lines = [f"# {k}={v}" for k, v in meta.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_cell(x) for x in row) for row in rows)
        _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))
    else:
        doc = {"meta": meta, "header": list(header),
               "rows": [[_cell(x) for x in row] for row in rows]}
        data = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        _atomic_write_bytes(path, (data + "\n").encode("ascii"))


def _out_path(cfg: RunConfig, tag: str, q: float) -> str:
    os.makedirs(cfg.outdir, exist_ok=True)
    name = f"{cfg.command}_{tag}_q{_fmt(q)}.{cfg.fmt}"
    return os.path.join(cfg.outdir, name)


def _lam_tag(w: Weight) -> str:
    return "lam" + "-".join(str(c) for c in w.coords)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_scan(cfg: RunConfig) -> int:
    tol = cfg.tolerance()
    lam = cfg.weight()
    for q in cfg.q:
        chain = CartanChain(lam, q, cfg.max_level, tol)
        table = asympt.conjecture_scan(chain=chain)
        rows = [[int(n)] + [table.column(c)[i] for c in table.COLUMNS]
                for i, n in enumerate(table.ns)]
        extra = {"lambda": ",".join(str(c) for c in lam.coords)}
        fittable = len(table) - asympt.BURN_IN_ROWS >= 4
        for col in table.COLUMNS:
            if not fittable:
                extra[f"fit_{col}"] = "skipped;too_few_rows"
                continue
            fit = asympt.rate_fit(table, col)
            extra[f"fit_{col}"] = (f"t_hat={_fmt(fit.t_hat)}"
                                   f";geometric={fit.geometric}"
                                   f";residual={_fmt(fit.residual)}")
        worst_slack = 0.0
        holds = True
        for n in range(2, cfg.max_level - asympt.GUARD_LEVELS + 1):
            lhs, rhs, ok = asympt.f_estimate_check(chain, n, table)
            holds = holds and ok
            worst_slack = max(worst_slack, lhs - rhs)
        extra["f_estimate"] = f"holds={holds};worst_excess={_fmt(worst_slack)}"
        path = _out_path(cfg, f"N{cfg.N}_{_lam_tag(lam)}", q)
        write_report(path, _meta(cfg, q, extra), ["n"] + list(table.COLUMNS),
                     rows, cfg.fmt)
        print(f"scan q={_fmt(q)}: {len(rows)} rows -> {path}")
        if not holds:
            raise InvariantViolation("isometry factorization estimate violated")
    return 0


def cmd_cg(cfg: RunConfig) -> int:
    tol = cfg.tolerance()
    # single-shape run: interpret lambda as fundamental coordinates
    shapes = None if cfg.lam is None else [cfg.weight().partition]
    status = 0
    for q in cfg.q:
        rows = gtcg.cg_grid(cfg.N, q, cfg.max_entry, tol, shapes)
        out = [["-".join(str(p) for p in mu), i, closed, numeric,
                abs(closed - numeric)] for mu, i, closed, numeric in rows]
        worst = max((r[4] for r in out), default=0.0)
        path = _out_path(cfg, f"N{cfg.N}_e{cfg.max_entry}", q)
        write_report(path, _meta(cfg, q, {"max_entry": str(cfg.max_entry)}),
                     ["mu", "i", "closed", "numeric", "abs_diff"], out, cfg.fmt)
        print(f"cg q={_fmt(q)}: {len(out)} rows, max |closed-numeric| = "
              f"{_fmt(worst)} -> {path}")
        if worst > 1e-7:
            status = 1
    return status


def cmd_qda(cfg: RunConfig) -> int:
    tol = cfg.tolerance()
    lam = cfg.weight()
    status = 0
    for q in cfg.q:
        chain = CartanChain(lam, q, cfg.max_level, tol)
        rows = []
        worst_exact = 0.0
        intertwiners = qda.chain_intertwiners(chain, cfg.max_level)
        for n in range(1, cfg.max_level + 1):
            arv = qda.q_arveson_residuals(n, q, cfg.N)
            cp = qda.cuntz_pimsner_residual(n, q, cfg.N)
            U = intertwiners[n]
            unit = float(np.max(np.abs(U.T @ U - np.eye(U.shape[1]))))
            rows.append([n, arv["off_diag"], arv["diag"], cp["exchange"],
                         cp["resolution"], cp["star_exchange"], cp["diag"],
                         unit])
            worst_exact = max(worst_exact, arv["off_diag"], arv["diag"],
                              cp["exchange"], cp["resolution"], unit)
        path = _out_path(cfg, f"N{cfg.N}_{_lam_tag(lam)}", q)
        write_report(path, _meta(cfg, q,
                                 {"lambda": ",".join(str(c) for c in lam.coords)}),
                     ["n", "arveson_off_diag", "arveson_diag", "cp_exchange",
                      "cp_resolution", "cp_star_exchange", "cp_diag",
                      "intertwiner_unitarity"], rows, cfg.fmt)
        print(f"qda q={_fmt(q)}: {len(rows)} levels, worst exact-relation "
              f"residual = {_fmt(worst_exact)} -> {path}")
        if worst_exact > cfg.identity_tol:
            status = 1
    return status


def cmd_star(cfg: RunConfig) -> int:
    tol = cfg.tolerance()
    lam = cfg.weight()
    status = 0
    for q in cfg.q:
        chain = CartanChain(lam, q, cfg.max_level, tol)
        sigmas = asympt.sigma_pair(chain.base)
        rows = []
        worst_fix = 0.0
        for n in range(1, cfg.max_level - asympt.GUARD_LEVELS + 1):
            r = asympt.star_commute_defect_chain(chain, n, sigmas)
            rows.append([n, r.defect_h.basis_max, r.defect_h.matricized,
                         r.bound_combo_h, r.defect_l.basis_max,
                         r.defect_l.matricized, r.bound_combo_l,
                         r.hw_fixed_point_residual])
            worst_fix = max(worst_fix, r.hw_fixed_point_residual)
        path = _out_path(cfg, f"N{cfg.N}_{_lam_tag(lam)}", q)
        write_report(path, _meta(cfg, q,
                                 {"lambda": ",".join(str(c) for c in lam.coords)}),
                     ["n", "defect_h", "defect_h_matricized", "bound_h",
                      "defect_l", "defect_l_matricized", "bound_l",
                      "fixed_point"], rows, cfg.fmt)
        print(f"star q={_fmt(q)}: {len(rows)} rows, worst fixed-point residual "
              f"= {_fmt(worst_fix)} -> {path}")
        if worst_fix > cfg.identity_tol:
            status = 1
    return status


def cmd_cache(cfg: RunConfig) -> int:
    tol = cfg.tolerance()
    lam = cfg.weight()
    cache_dir = cfg.cache_dir if cfg.cache_dir is not None else cfg.outdir
    os.makedirs(cache_dir, exist_ok=True)
    for q in cfg.q:
        chain = CartanChain(lam, q, cfg.max_level, tol)
        name = (f"chain_N{cfg.N}_{_lam_tag(lam)}_q{_fmt(q)}"
                f"_M{cfg.max_level}.qcc")
        path = os.path.join(cache_dir, name)
        store_chain(chain, path)
        loaded = load_chain(path, tol)
        mismatch = _chain_mismatch(chain, loaded)
        del chain   # the checks below read the reloaded copy only
        if mismatch:
            raise InvariantViolation(f"cache round trip not bit-exact: {mismatch}")
        for n, lv in enumerate(loaded.levels):
            report = check_module(lv, tol)
            if not report["passed"]:
                raise InvariantViolation(
                    f"reloaded level {n} fails module checks: {report}")
        coassoc = loaded.certify_coassociativity()
        if coassoc > tol.identity_tol:
            raise InvariantViolation(f"reloaded chain coassociativity {coassoc:.3e}")
        print(f"cache q={_fmt(q)}: stored, reloaded bit-exact, "
              f"module checks passed, coassociativity {_fmt(coassoc)} -> {path}")
    return 0


def _chain_mismatch(a: CartanChain, b: CartanChain) -> str:
    if a.q != b.q or a.M != b.M or a.lam != b.lam:
        return "header"
    for n in range(a.M + 1):
        la, lb = a.levels[n], b.levels[n]
        if not np.array_equal(la.weights, lb.weights):
            return f"weights at level {n}"
        for i in range(1, a.N):
            if not _same_triplets(la.F[i], lb.F[i]):
                return f"F_{i} at level {n}"
    for n in range(a.M):
        if not _same_triplets(a.w[n], b.w[n]):
            return f"isometry {n}"
    return ""


def _same_triplets(a: SparseMatrix, b: SparseMatrix) -> bool:
    return (a.shape == b.shape and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols) and np.array_equal(a.vals, b.vals))


# ---------------------------------------------------------------------------
# chain cache file format
# ---------------------------------------------------------------------------

_RECORD = struct.Struct("<QIQQ")   # nbytes, crc32, rows, cols


def _pack_record(shape, data: bytes) -> bytes:
    return _RECORD.pack(len(data), zlib.crc32(data), *shape) + data


def _pack_matrix(m: np.ndarray) -> bytes:
    return _pack_record(m.shape, np.asarray(m, dtype="<f8").tobytes(order="F"))


def _pack_triplets(S: SparseMatrix) -> bytes:
    return _pack_record(S.shape, S.rows.astype("<i8").tobytes()
                        + S.cols.astype("<i8").tobytes() + S.vals.astype("<f8").tobytes())


def _unpack_record(buf: memoryview, off: int):
    if off + _RECORD.size > len(buf):
        raise InvariantViolation("cache payload truncated")
    nbytes, crc, rows, cols = _RECORD.unpack_from(buf, off)
    off += _RECORD.size
    data = bytes(buf[off:off + nbytes])
    if len(data) != nbytes or zlib.crc32(data) != crc:
        raise InvariantViolation("cache payload checksum mismatch")
    return (rows, cols), data, off + nbytes


def _unpack_matrix(buf: memoryview, off: int):
    (rows, cols), data, off = _unpack_record(buf, off)
    if rows * cols * 8 != len(data):
        raise InvariantViolation("cache payload length mismatch")
    m = np.frombuffer(data, dtype="<f8").reshape((rows, cols), order="F")
    return np.ascontiguousarray(m), off


def _unpack_triplets(buf: memoryview, off: int):
    """A triplet record, checked to be canonical before it is wrapped."""
    shape, data, off = _unpack_record(buf, off)
    if len(data) % 24:
        raise InvariantViolation("cache triplet record length mismatch")
    nnz = len(data) // 24
    r, c = np.frombuffer(data, dtype="<i8", count=2 * nnz).astype(np.int64).reshape(2, nnz)
    v = np.frombuffer(data, dtype="<f8", offset=16 * nnz).astype(np.float64)
    if nnz and (r.min() < 0 or r.max() >= shape[0] or c.min() < 0 or c.max() >= shape[1]):
        raise InvariantViolation(f"cache triplet index out of range for shape {shape}")
    if np.any(np.diff(r * shape[1] + c) <= 0):
        raise InvariantViolation("cache triplet keys not strictly increasing row-major")
    if np.any(v == 0.0):
        raise InvariantViolation("cache triplet record holds an exact zero")
    return SparseMatrix._canonical(shape, r, c, v), off


def store_chain(chain: CartanChain, path: str) -> None:
    """Serialize the chain; atomic (temp file + fsync + rename)."""
    payloads = []
    for lv in chain.levels:
        payloads.append(_pack_matrix(lv.weights.astype(np.float64)))
        payloads.extend(_pack_triplets(lv.F[i]) for i in range(1, chain.N))
    for m in chain.w:
        payloads.append(_pack_triplets(m))
    body = b"".join(payloads)

    qstr = _fmt(chain.q).encode("ascii")
    head = [CACHE_MAGIC, struct.pack("<III", CACHE_VERSION, chain.N, chain.M),
            struct.pack("<H", len(qstr)), qstr,
            struct.pack("<I", chain.N - 1)]
    head.append(struct.pack(f"<{chain.N - 1}q", *chain.lam.coords))
    dims = [lv.dim for lv in chain.levels]
    head.append(struct.pack("<I", len(dims)))
    head.append(struct.pack(f"<{len(dims)}Q", *dims))
    head.append(struct.pack("<II", len(payloads), zlib.crc32(body)))
    _atomic_write_bytes(path, b"".join(head) + body)


def load_chain(path: str, tol: ToleranceProfile = DEFAULT_TOL) -> CartanChain:
    """Read a chain cache file; verifies checksums, shape bookkeeping, the
    weight tables (finite integers, row 0 the level's highest weight) and
    the canonical form of every triplet record.

    Substance verification (module relations, coassociativity) is the
    caller's job; cmd_cache replays both.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    buf = memoryview(blob)
    if bytes(buf[:8]) != CACHE_MAGIC:
        raise InvariantViolation(f"{path}: not a chain cache file")
    off = 8

    def take(fmt: str) -> tuple:
        # the header precedes the body checksum: check its length first
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise InvariantViolation(f"{path}: cache header truncated")
        off += size
        return struct.unpack_from(fmt, buf, off - size)

    version, N, M = take("<III")
    if version != CACHE_VERSION:
        raise InvariantViolation(f"{path}: unsupported cache version {version}")
    (qlen,) = take("<H")
    (qstr,) = take(f"<{qlen}s")
    try:
        q = check_q(qstr.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise InvariantViolation(f"{path}: unreadable q {qstr!r} in the cache header")
    (rank,) = take("<I")
    coords = take(f"<{rank}q")
    (nlevels,) = take("<I")
    dims = take(f"<{nlevels}Q")
    count, body_crc = take("<II")
    if rank != N - 1 or nlevels != M + 1:
        raise InvariantViolation(f"{path}: inconsistent cache header")
    if zlib.crc32(blob[off:]) != body_crc:
        raise InvariantViolation(f"{path}: cache body checksum mismatch")
    expect = (M + 1) * N + M
    if count != expect:
        raise InvariantViolation(f"{path}: expected {expect} payloads, got {count}")

    lam = Weight(tuple(int(c) for c in coords))
    levels = []
    for n in range(M + 1):
        weights, off = _unpack_matrix(buf, off)
        if weights.shape != (dims[n], N - 1):
            raise InvariantViolation(f"{path}: level {n} dim mismatch")
        # integers below 2^53 are exact in the float64 record
        if not np.all(np.isfinite(weights) & (weights == np.round(weights))
                      & (np.abs(weights) < 2.0 ** 53)):
            raise InvariantViolation(
                f"{path}: level {n} weight table holds an entry that is not a finite integer")
        weights = weights.astype(np.int64)
        if weights[:1].tolist() != [list((lam * n).coords)]:
            raise InvariantViolation(
                f"{path}: level {n} weight row 0 is not the highest weight {lam * n}")
        F = {}
        for i in range(1, N):
            F[i], off = _unpack_triplets(buf, off)
        levels.append(QModule(N, q, weights, F, highest_weight=lam * n))
    w = []
    for _ in range(M):
        W, off = _unpack_triplets(buf, off)
        w.append(W)
    if off != len(blob):
        raise InvariantViolation(f"{path}: trailing bytes in cache file")
    return CartanChain.from_parts(lam, q, M, tol, levels, w)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"scan": cmd_scan, "cg": cmd_cg, "qda": cmd_qda,
             "star": cmd_star, "cache": cmd_cache}


def main(argv: list = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = build_config(list(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except AmbiguousRank as exc:
        print(f"ambiguous rank certificate: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
