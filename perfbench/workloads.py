"""Workloads of the dyndeg benchmark: seeded inputs and the timed operations.

A workload is a list of rounds and a round is a list of ops.  Runs execute
whole rounds, so every run sees the same mix of inputs whatever its seed:

- ``lambda-deep``: a round is ten distinct parameters, two from each band
  ``10(b-1) < max(|re|, |im|) <= 10b``, b = 1..5, and one from each tenth
  of ``|Arg zeta|`` in ``[0, pi]``.  The cost of the 150-digit solve grows
  with the size of ``d_j`` and with ``|zeta| / lambda``, which depends on
  the argument (conjugates cost the same), so this keeps the cost mix of
  every round the same.
- ``oracle-iterates``: a round is one member of each conjugate pair of the
  ten parameters with ``max(|re|, |im|) <= 3`` whose third iterate fits the
  default oracle budget (``e_1 * e_2 <= 1000``).  Conjugates cost the same,
  and the pairs differ in cost by a factor of six, so a round holds each
  pair once.  The next round takes the other members.
- ``survey``: a round is 30 distinct parameters with ``|re|, |im| <= 1000``,
  one from each cell of the grid of five bands
  ``200(b-1) < max(|re|, |im|) <= 200b`` by six equal parts of
  ``|Arg zeta|`` in ``[0, pi]``, each with its six ops (five CLI
  subcommands and the dual-route octant sweep).  The sweep's cost
  grows with ``|zeta|`` and the ``irregular`` op's with the number of
  irregular indices, which depends on the argument.

Functions are looked up through their modules at call time, so the tracer's
wrappers see every call.  Nothing here checks results; see ``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from dyndeg import cli, diophantine, gaussian, oracle, solver

NAMES = ("lambda-deep", "oracle-iterates", "survey")

ROUNDS = 12  # rounds generated per run; a 20-s run uses one or two today

LAMBDA_WIDTH = Fraction(1, 10**150)
PSI_TOL = Fraction(1, 10**110)
PERIOD_N = 100
THETA_BITS = 256
SWEEP_J = 1000
ORACLE_ITER = 3

# one parameter of each conjugate pair; (re, -im) is the other member
ORACLE_PAIRS = ((1, 2), (-1, 2), (2, 1), (-2, 1), (3, 1))

SURVEY_CLI = (
    ("degrees",),
    ("lambda", "--digits", "10"),
    ("cf", "--depth", "20"),
    ("irregular", "--n", "210", "--window", "5"),
    ("report",),
)


@dataclass(frozen=True)
class Op:
    kind: str  # "lambda-deep", "oracle", "sweep", or a CLI subcommand
    zeta: tuple  # (re, im)
    argv: tuple = ()  # CLI arguments, for CLI and oracle ops
    seed: int = 0  # line-oracle seed, for oracle ops


def zeta_text(zeta) -> str:
    re, im = zeta
    return f"{re}{im:+d}i"


def admissible(re: int, im: int) -> bool:
    """No positive power of re+im*i is real: off both axes and both diagonals."""
    return re != 0 and im != 0 and abs(re) != abs(im)


def build(name: str, seed: int):
    """The seeded rounds of a workload; the same seed gives the same rounds."""
    make_rounds = {"lambda-deep": _lambda_rounds, "oracle-iterates": _oracle_rounds, "survey": _survey_rounds}
    return make_rounds[name](random.Random(seed), ROUNDS)


def _draw(rng, width, band, sectors, sector, used):
    """Uniform admissible unused zeta with width*(band-1) < max(|re|,|im|) <= width*band
    and |Arg zeta| in the sector-th of `sectors` equal parts of [0, pi]."""
    edge = width * band
    while True:
        z = (rng.randint(-edge, edge), rng.randint(-edge, edge))
        if (
            max(map(abs, z)) > edge - width
            and int(abs(math.atan2(z[1], z[0])) / math.pi * sectors) == sector
            and admissible(*z)
            and z not in used
        ):
            used.add(z)
            return z


def _lambda_rounds(rng, n_rounds):
    used = set()
    rounds = []
    for _ in range(n_rounds):
        sectors = list(range(10))
        rng.shuffle(sectors)
        ops = [Op("lambda-deep", _draw(rng, 10, slot // 2 + 1, 10, sector, used)) for slot, sector in enumerate(sectors)]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _oracle_rounds(rng, n_rounds):
    flips = [rng.randrange(2) for _ in ORACLE_PAIRS]
    rounds = []
    for r in range(n_rounds):
        ops = []
        for (re, im), flip in zip(ORACLE_PAIRS, flips):
            z = (re, im if (r + flip) % 2 == 0 else -im)
            argv = ("oracle", "--zeta", zeta_text(z), "--max-iter", str(ORACLE_ITER), "--format", "json")
            ops.append(Op("oracle", z, argv, rng.randrange(1 << 31)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _survey_rounds(rng, n_rounds):
    used = set()
    rounds = []
    for _ in range(n_rounds):
        zetas = [_draw(rng, 200, band, 6, sector, used) for band in range(1, 6) for sector in range(6)]
        rng.shuffle(zetas)
        rounds.append([op for z in zetas for op in _survey_ops(z)])
    return rounds


def _survey_ops(z):
    ops = [Op(sub[0], z, (sub[0], "--zeta", zeta_text(z)) + sub[1:] + ("--format", "json")) for sub in SURVEY_CLI]
    return ops + [Op("sweep", z)]


def run(op: Op) -> dict:
    """Execute one op and return its raw outputs for checking."""
    if op.kind == "lambda-deep":
        return _run_lambda_deep(op)
    if op.kind == "sweep":
        return _run_sweep(op)
    out = _run_cli(op.argv)
    if op.kind == "oracle":
        z = gaussian.GaussianInt(*op.zeta)
        f = oracle.compose(oracle.g_map(), oracle.monomial_map(gaussian.IntMatrix2x2.from_zeta(z)))
        out["line_degree"] = oracle.factored_line_degree(oracle.iterate_map(f, ORACLE_ITER), seed=op.seed)
    return out


def _run_cli(argv) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse and input errors exit this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _run_lambda_deep(op: Op) -> dict:
    z = gaussian.GaussianInt(*op.zeta)
    enclosure = solver.solve_lambda(z, LAMBDA_WIDTH)
    alpha = solver.alpha_of(z, enclosure)
    ctx = diophantine.theta_interval(z, THETA_BITS)
    phi_n = diophantine.phi_n_eval(ctx, PERIOD_N, alpha)
    psi_n = diophantine.psi_n_eval(ctx, PERIOD_N, alpha, PSI_TOL)
    return {"enclosure": enclosure, "alpha": alpha, "phi_n": phi_n, "psi_n": psi_n}


def _run_sweep(op: Op) -> dict:
    z = gaussian.GaussianInt(*op.zeta)
    ctx = diophantine.theta_interval(z, 128)
    mismatches = []
    argmax = []
    for j in range(1, SWEEP_J + 1):
        by_octant = diophantine.octant_gamma(ctx, j)[1]
        by_argmax = gaussian.gamma_argmax(z, j)
        if by_octant != by_argmax:
            mismatches.append(j)
        argmax.append((by_argmax.re, by_argmax.im))
    return {"mismatches": mismatches, "argmax": argmax}
