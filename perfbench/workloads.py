"""The three benchmark workloads: task lists, seeded inputs and output checks.

A task is one thing a user of qcartan does: a CLI subcommand called
in-process through ``qcartan.cli.main``, or a short sequence of public
library calls.  Every task verifies its own output and raises ``TaskFailed``
when a check does not hold, so a timed task is the time to a verified result.

The configurations are fixed.  The seed only draws the random vectors and
operators that some tasks feed to the library, and the task order of each
pass (see ``run.py``).
"""
from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcartan import asympt, braiding, cli, qda, repn, sps
from qcartan.numerics import operator_norm
from qcartan.qcore import Weight, pairing, weyl_dim

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Scan and star reports must match the reference tables captured from the
# seed commit: |got - ref| <= REF_RTOL * |ref| + REF_ATOL for every number.
REF_RTOL = 1e-9
REF_ATOL = 1e-12
CG_TOL = 1e-7          # |closed - numeric| for coupling coefficients
EXACT_TOL = 1e-9       # exact q-symmetric relations and module relations
BRAID_TOL = 1e-8       # braiding certificates, as in the acceptance gates
THETA_TOL = 1e-10      # Theta^k against the compression psi

# cache_deep: N=3 omega_1 at q=1.5 runs its level recursion in longdouble;
# the rho chain has weights of multiplicity above 1; N=4 has the largest
# tensor dimension per level.
CACHE_CHAINS = (
    (3, None, "1.5", 13),
    (3, "1,1", "1.0", 5),
    (4, None, "1.5", 8),
)
# scan_star: all float64 chains; q=2 stops at M=18 because M >= 21 raises a
# false AmbiguousRank at the seed commit.
SCAN_CHAINS = (
    (3, "1.0", 22),
    (4, "1.0", 10),
    (2, "1.2", 22),
    (2, "1.5", 22),
    (2, "2.0", 18),
)
DECAY_CHAIN = ((1,), 1.5, 22)
# small_modules: short chains for the braiding gates, including the deepest
# N=2 levels that build at q=3 and q=2.
BRAID_CHAINS = (((1,), 3.0, 13), ((1,), 2.0, 20), ((1,), 1.5, 8),
                ((2,), 1.5, 8), ((1, 0), 1.5, 8))
BRAID_TOP = 8
CG_GRIDS = ((2, 6), (3, 6), (4, 3))          # (N, max_entry) at q in {1, 1.5}
RESIDUAL_N = (2, 3, 4)
RESIDUAL_LEVELS = range(1, 21)
RESIDUAL_Q = 1.5
GWB_WEIGHTS = ((0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1))


class TaskFailed(Exception):
    """A task ran but its output failed a check."""


@dataclass
class Task:
    name: str
    family: str        # cache | scan | star | cg | qda | other
    run: Callable[[], None]


@dataclass
class Inputs:
    """Everything a workload draws from the seed."""

    xi: np.ndarray
    zeta: np.ndarray
    theta_blocks: dict   # chain key -> list of (n0, k, X)


def _unit(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    xi, zeta = _unit(rng, 2), _unit(rng, 2)
    blocks = {}
    for coords, q, M in BRAID_CHAINS:
        lam = Weight(coords)
        gates = []
        for n0, k in ((1, 2), (2, 3)):
            d = weyl_dim(lam * n0)
            gates.append((n0, k, rng.standard_normal((d, d))))
        blocks[(coords, q, M)] = gates
    return Inputs(xi, zeta, blocks)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise TaskFailed(what)


def run_cli(argv: list) -> str:
    """Call the CLI in-process; return its stdout, fail on a nonzero code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _check(code == 0, f"qcartan {' '.join(argv)} exited {code}: "
                      f"{err.getvalue().strip()}")
    return out.getvalue()


# -- report comparison --------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def compare_report(got: str, ref: str) -> str:
    """'' when the two CSV reports agree to the stated tolerance, else why not.

    Text outside numbers must match exactly; numbers match to
    REF_RTOL relative plus REF_ATOL absolute.
    """
    gl, rl = got.splitlines(), ref.splitlines()
    if len(gl) != len(rl):
        return f"{len(gl)} lines, reference has {len(rl)}"
    for no, (g, r) in enumerate(zip(gl, rl), 1):
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", r):
            return f"line {no} differs in text: {g!r} vs {r!r}"
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(r)):
            x, y = float(a), float(b)
            if not abs(x - y) <= REF_RTOL * abs(y) + REF_ATOL:
                return f"line {no}: {a} vs reference {b}"
    return ""


def _report_task(command: str, N: int, q: str, M: int, outdir: str) -> Task:
    argv = [command, "--N", str(N), "--q", q, "--max-level", str(M),
            "--out", outdir]

    def run():
        run_cli(argv)
        lam = "lam" + "-".join(["1"] + ["0"] * (N - 2))
        name = f"{command}_N{N}_{lam}_q{float(q):.17g}.csv"
        got = Path(outdir, name).read_text()
        diff = compare_report(got, (REFERENCE_DIR / name).read_text())
        _check(diff == "", f"{name} does not match the reference: {diff}")

    return Task(f"{command} N={N} q={q} M={M}", command, run)


# -- cache_deep ---------------------------------------------------------------

_COASSOC = re.compile(r"coassociativity (\S+) -> (\S+)")


def _cache_task(N: int, lam, q: str, M: int, outdir: str) -> Task:
    argv = ["cache", "--N", str(N), "--q", q, "--max-level", str(M),
            "--out", outdir]
    if lam is not None:
        argv += ["--lambda", lam]
    weight = Weight(tuple(int(c) for c in lam.split(","))) if lam else \
        Weight((1,) + (0,) * (N - 2))

    def run():
        out = run_cli(argv)
        _check("reloaded bit-exact" in out, f"no bit-exact reload: {out!r}")
        m = _COASSOC.search(out)
        _check(m is not None, f"no coassociativity line: {out!r}")
        _check(float(m.group(1)) <= EXACT_TOL,
               f"coassociativity {m.group(1)} above {EXACT_TOL}")
        chain = cli.load_chain(m.group(2))
        _check(chain.dims == [weyl_dim(weight * n) for n in range(M + 1)],
               f"reloaded dims {chain.dims} differ from the Weyl dimensions")

    return Task(f"cache N={N} lambda={lam or 'omega_1'} q={q} M={M}",
                "cache", run)


def cache_deep(inputs: Inputs, outdir: str) -> list:
    return [_cache_task(N, lam, q, M, outdir) for N, lam, q, M in CACHE_CHAINS]


# -- scan_star ----------------------------------------------------------------

def _decay_task(inputs: Inputs) -> Task:
    coords, q, M = DECAY_CHAIN

    def run():
        chain = sps.CartanChain(Weight(coords), q, M)
        top = M - asympt.GUARD_LEVELS
        burn = asympt.BURN_IN_ROWS
        cap = 1.0 / q + 0.05
        ns, worst = asympt.commutator_decay(chain, top)
        fit = asympt.fit_geometric(np.asarray(ns[burn:], float), worst[burn:])
        _check(0.0 < fit.t_hat <= cap, f"commutator decay rate {fit.t_hat}")

        vac = asympt.vacuum_limits(chain, inputs.xi, inputs.zeta, top)
        _check(float(np.max(vac["residual_creation"])) <= EXACT_TOL,
               "creation-first vacuum expectation is not exact")
        _check(float(vac["residual_annihilation"][-1]) <= 1e-3,
               "annihilation-first vacuum expectation did not converge")

        fock = sps.FockSpace(chain, top)
        Sx = sps.creation(chain, inputs.xi, fock=fock)
        Sz = sps.creation(chain, inputs.zeta, fock=fock)
        for x in (Sx @ Sz.adjoint(), Sx.adjoint() @ Sz):
            tns, vals = asympt.compactification_table(chain, x, kmax=3)
            fit = asympt.fit_geometric(np.asarray(tns[burn:], float), vals[burn:])
            _check(fit.converged_to_zero or 0.0 < fit.t_hat <= cap,
                   f"compactification decay rate {fit.t_hat}")

    return Task("decay suite N=2 q=1.5 M=22", "other", run)


def scan_star(inputs: Inputs, outdir: str) -> list:
    tasks = []
    for N, q, M in SCAN_CHAINS:
        tasks.append(_report_task("scan", N, q, M, outdir))
        tasks.append(_report_task("star", N, q, M, outdir))
    tasks.append(_decay_task(inputs))
    return tasks


# -- small_modules ------------------------------------------------------------

def _cg_task(N: int, max_entry: int, outdir: str) -> Task:
    conf = os.path.join(outdir, f"cg_e{max_entry}.conf")
    argv = ["cg", "--config", conf, "--N", str(N), "--q", "1,1.5",
            "--out", outdir]

    def run():
        Path(conf).write_text(f"max_entry={max_entry}\n")
        run_cli(argv)
        for q in ("1", "1.5"):
            text = Path(outdir, f"cg_N{N}_e{max_entry}_q{q}.csv").read_text()
            rows = [ln.split(",") for ln in text.splitlines()
                    if not ln.startswith("#")][1:]
            _check(len(rows) > 0, f"empty cg grid N={N} q={q}")
            worst = max(float(r[4]) for r in rows)
            _check(worst <= CG_TOL, f"cg N={N} q={q}: |closed-numeric| {worst}")

    return Task(f"cg N={N} max_entry={max_entry}", "cg", run)


def _qda_cli_task(outdir: str) -> Task:
    def run():
        run_cli(["qda", "--N", "2", "--out", outdir])

    return Task("qda N=2", "qda", run)


def _residual_task(N: int) -> Task:
    def run():
        for n in RESIDUAL_LEVELS:
            arv = qda.q_arveson_residuals(n, RESIDUAL_Q, N)
            cp = qda.cuntz_pimsner_residual(n, RESIDUAL_Q, N)
            worst = max(arv["off_diag"], arv["diag"], cp["exchange"],
                        cp["resolution"])
            _check(worst <= EXACT_TOL, f"q-symmetric residual {worst} at n={n}")

    return Task(f"residual tables N={N}", "qda", run)


def _braid_task(key, gates) -> Task:
    coords, q, M = key

    def run():
        chain = sps.CartanChain(Weight(coords), q, M)
        sigma = braiding.braid_sigma(chain.base, chain.base)
        f2 = chain.w[1].T
        scale = q ** pairing(chain.lam, chain.lam)
        _check(operator_norm(f2 @ sigma.matrix - scale * f2) <= BRAID_TOL,
               "sigma does not rescale the level-2 co-isometry")
        # The certificates are absolute residuals, and level entries grow
        # like q^n; the acceptance gates stop at level 8 for that reason.
        for n in range(1, min(M, BRAID_TOP) + 1):
            cert = braiding.certify_pair(chain.base, chain.levels[n])
            _check(max(cert.values()) <= BRAID_TOL,
                   f"braiding certificate {cert} at level {n}")
        for n in range(1, M - 1):
            res = sps.eq_comm_residual(chain, sigma.matrix, n)
            _check(res <= BRAID_TOL, f"braided commutation {res} at level {n}")
        fock = sps.FockSpace(chain)
        for n0, k, X in gates:
            Y = sps.BlockOp(fock, 0, {n0: X})
            for _ in range(k):
                Y = sps.theta(chain, Y)
            res = operator_norm(Y.block(n0 + k) - sps.psi(chain, n0, k, X))
            _check(res <= THETA_TOL, f"Theta^{k} vs psi {res} at level {n0}")

    return Task(f"braiding lambda={coords} q={q} M={M}", "other", run)


def _builder_task() -> Task:
    def run():
        builder = sps.GeneralWeightBuilder(4, 1.5)
        for coords in GWB_WEIGHTS:
            mu = Weight(coords)
            V = builder.module(mu)
            _check(V.dim == weyl_dim(mu), f"dim V_{coords} = {V.dim}")
            repn.check_module(V, raise_on_fail=True)

    return Task("N=4 builder modules", "other", run)


def small_modules(inputs: Inputs, outdir: str) -> list:
    tasks = [_cg_task(N, e, outdir) for N, e in CG_GRIDS]
    tasks.append(_qda_cli_task(outdir))
    tasks.extend(_residual_task(N) for N in RESIDUAL_N)
    tasks.extend(_braid_task(key, gates)
                 for key, gates in inputs.theta_blocks.items())
    tasks.append(_builder_task())
    return tasks


WORKLOADS = {
    "cache_deep": cache_deep,
    "scan_star": scan_star,
    "small_modules": small_modules,
}
