"""Command-line front end: experiment subcommands, config handling, report
serialization.  Owns no mathematics.

Exit codes: 0 success, 1 an exact identity was violated (the counterexample
is printed), 2 usage, budget, or precision problems.  Every output file
starts with a comment line echoing the fully resolved configuration, and
rerunning with the same seed gives byte-identical output.  Runs are
single-threaded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys

import numpy as np

from . import __version__
from .errors import BudgetExceeded, CharacteristicError, IdentityCheckError, PrecisionExceeded
from .fields import parse_field
from .hayes import (
    build_group,
    euler_inverse_check,
    l_polynomial,
    log_deriv_check,
    principal_check,
    rh_check,
)
from .laurent import LaurentSeries, sample_torus
from .polys import Poly, divisor_second_moment, max_tau_report, pnt_check
from .quadform import QuadPhase, hankel_matrix, gauss_mean, isotropic_count, rank_stats
from .correlations import (
    LinearPhase,
    exponent_sweep,
    hankel_corr,
    linear_corr,
    quad_corr,
    type_one_mean_square,
    vaughan_decompose,
    _random_quad_phase,
    _random_symmetric,
)
from . import sieve as _sieve


def _choice(*values):
    """A flag type that takes only the listed strings; argparse and the
    config file report the others through its name."""

    def kind(text: str) -> str:
        if text not in values:
            raise ValueError(text)
        return text

    kind.__name__ = "|".join(values)
    return kind


# Every flag once: its type, its default and, for an int, its least value.
# Flags are read with default None, so that resolve_config can layer the
# config file, whose keys are these names, beneath them.
FLAGS = {
    "field": (str, "2", None),
    "budget": (int, 1_200_000, 1),
    "seed": (int, 0, 0),
    "out": (str, None, None),
    "format": (_choice("csv", "json"), "csv", None),
    "workers": (int, 1, 1),  # accepted for compatibility and ignored
    "config": (str, None, None),
    "lmax": (int, 10, 0),
    "nmax": (int, 10, 0),
    "n": (int, 8, 0),
    "l": (int, 0, 0),
    "Q": (str, "1", None),
    "alpha": (str, "random", None),
    "beta": (str, "random", None),
    "domain": (_choice("A", "G"), "G", None),
    "u": (int, None, 0),
    "v": (int, None, 0),
    "trials": (int, 1, 0),
    "r": (int, 1, 0),
    "k": (int, 1, 0),
    "h": (int, 0, 0),
    "mode": (_choice("exhaustive", "sampled"), "exhaustive", None),
    "samples": (int, 10, 0),
    "experiment": (_choice("linear", "quadratic", "hankel"), "linear", None),
    "nmin": (int, 2, 0),
}

# the flags of every subcommand, before its own (SUBCOMMANDS)
COMMON_FLAGS = ("field", "budget", "seed", "out", "format", "workers", "config")


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, complex):
        return f"{format(x.real, '.12g')}{'+' if x.imag >= 0 else '-'}{format(abs(x.imag), '.12g')}j"
    if x is None:
        return ""
    return str(x)


def _build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand and its flags: the reference for
    what main accepts, and the only source of help, usage and error text."""
    ap = argparse.ArgumentParser(prog="ffmobius", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, own) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for key in COMMON_FLAGS + own:
            sp.add_argument("--" + key, type=FLAGS[key][0], default=None)
    return ap


# argparse reads a token that matches this as a value, not as an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_exact(argv: list) -> argparse.Namespace | None:
    """The Namespace _build_parser() would give argv, read from the flag
    tables, when argv is a subcommand followed by exact flags of it, each as
    `--flag value` or `--flag=value`, with no separate value that argparse
    could take for an option and every value converted by its flag's type.
    None for any other argv (help, `--`, abbreviations, errors), which is
    left to argparse: building its parsers costs a cold run more than the
    reading does."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    values = dict.fromkeys(COMMON_FLAGS + SUBCOMMANDS[argv[0]][1], None)
    tokens = iter(argv[1:])
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        key = flag[2:]
        if flag[:2] != "--" or key not in values:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and not _NEGATIVE_NUMBER.match(value)):
                return None
        try:
            values[key] = FLAGS[key][0](value)
        except ValueError:
            return None
    return argparse.Namespace(subcommand=argv[0], **values)


class UsageError(Exception):
    pass


def _config_value(key: str, value):
    """A config-file value as its flag would give it: a string goes through
    the flag's type, as on the command line; an int flag also takes a JSON
    integer, and --field a JSON number (main reads it as text)."""
    kind = FLAGS[key][0]
    if isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            raise UsageError(f"config key {key!r}: invalid {kind.__name__} value {value!r}") from None
    if (type(value) is int and kind is int) or (key == "field" and type(value) in (int, float)):
        return value
    raise UsageError(f"config key {key!r}: expected {kind.__name__}, got {json.dumps(value)}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Layer the defaults of FLAGS, then the config file, then explicit
    flags; then check every integer's least value."""
    cli = {k: v for k, v in vars(args).items() if k != "subcommand"}
    file_cfg = {}
    cfg_path = cli.get("config")
    if cfg_path:
        with open(cfg_path) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(FLAGS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        file_cfg = {key: _config_value(key, value) for key, value in file_cfg.items()}
    out = {}
    for key, value in cli.items():
        _, default, least = FLAGS[key]
        if value is None:
            value = file_cfg.get(key, default)
        if least is not None and value is not None and value < least:
            raise UsageError(f"--{key} {value} must be >= {least}")
        out[key] = value
    return out


SILENT_KEYS = ("config", "out", "workers")  # do not affect the mathematical content


def header_line(sub: str, cfg: dict) -> str:
    printable = {
        k: v for k, v in sorted(cfg.items()) if k not in SILENT_KEYS and v is not None
    }
    body = " ".join(f"{k}={v}" for k, v in printable.items())
    return f"# ffmobius v{__version__} cmd={sub} {body}"


def write_report(sub: str, cfg: dict, columns: list, rows: list):
    lines = [header_line(sub, cfg)]
    if cfg["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(x) for x in row])
        lines.append(buf.getvalue().rstrip("\n"))
    else:
        payload = {
            "tool": f"ffmobius v{__version__}",
            "cmd": sub,
            "config": {k: v for k, v in cfg.items() if k not in SILENT_KEYS},
            "columns": columns,
            "rows": [[fmt(x) for x in row] for row in rows],
        }
        lines.append(json.dumps(payload, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_alpha(ctx, text: str, rng, prec: int, flag: str, need: int) -> LaurentSeries:
    """The series of flag: a draw or zero at precision prec, or the literal
    text, which must carry precision >= need."""
    if text == "random":
        return sample_torus(ctx, rng(), prec)
    if text == "0":
        return LaurentSeries.zero(ctx, prec)
    try:
        alpha = LaurentSeries.parse(ctx, text)
    except ValueError as exc:
        raise UsageError(f"{flag} {text}: {exc}") from None
    if not alpha.in_torus():
        raise UsageError(f"{flag} {text} is not in the torus: its coefficients of degree >= 0 must be 0")
    if alpha.prec < need:
        raise UsageError(f"{flag} {text} has precision {alpha.prec}, needs >= {need}")
    return alpha


# -- runners ---------------------------------------------------------------------
#
# Each runner takes (ctx, cfg, rng) and returns (columns, rows).  rng() is the
# run's one generator, seeded by --seed and built on first call, so commands
# that draw nothing never import numpy.random.


def run_pnt(ctx, cfg, rng):
    rows = []
    for l in range(1, cfg["lmax"] + 1):
        if ctx.q**l > cfg["budget"]:
            break
        s, expected = pnt_check(ctx, l, cfg["budget"])
        if s != expected:
            raise IdentityCheckError(
                "von Mangoldt degree sum misses q^l", counterexample=f"q={ctx.q}, l={l}, sum={s}"
            )
        rows.append((l, s, expected, True))
    return ["l", "lambda_sum", "expected", "ok"], rows


def run_mobius_sums(ctx, cfg, rng):
    rows = []
    nmax = cfg["nmax"]
    for n in range(1, nmax + 1):
        if ctx.q**n > cfg["budget"]:
            break
        sieve = _sieve.get_sieve(ctx, n)
        s = int(sieve.degree_slice(sieve.mu, n).astype(np.int64).sum())
        expected = -ctx.q if n == 1 else 0
        if s != expected:
            raise IdentityCheckError(
                "Mobius column sum off", counterexample=f"q={ctx.q}, n={n}, sum={s}"
            )
        rows.append((n, s, expected, True))
    return ["n", "mu_sum", "expected", "ok"], rows


def run_divisor_moments(ctx, cfg, rng):
    rows = []
    taus = {n: (m, r) for n, m, r in max_tau_report(ctx, min(cfg["nmax"], _budget_deg(ctx, cfg)), cfg["budget"])}
    for n in range(1, cfg["nmax"] + 1):
        if ctx.q**n > cfg["budget"]:
            break
        exact, brute, bound = divisor_second_moment(ctx, n, cfg["budget"])
        if exact != brute or exact > bound:
            raise IdentityCheckError(
                "divisor second moment mismatch",
                counterexample=f"q={ctx.q}, n={n}, series={exact}, brute={brute}",
            )
        mt, ratio = taus[n]
        rows.append(
            (n, exact.numerator, exact.denominator, brute.numerator, brute.denominator, bound, True, mt, ratio)
        )
    return (
        ["n", "mean_num", "mean_den", "brute_num", "brute_den", "bound", "ok", "max_tau", "tau_log_ratio"],
        rows,
    )


def _budget_deg(ctx, cfg) -> int:
    d = 1
    while ctx.q ** (d + 1) <= cfg["budget"]:
        d += 1
    return d


def _parse_Q(ctx, text: str, monic: bool) -> Poly:
    """--Q as a polynomial: nonzero, and monic where it defines a Hayes group."""
    try:
        Q = Poly.parse(ctx, text)
    except ValueError as exc:
        raise UsageError(f"--Q {text}: {exc}") from None
    if Q.is_zero() or (monic and not Q.is_monic()):
        raise UsageError(f"--Q {text}: the modulus must be {'monic' if monic else 'nonzero'}")
    return Q


def _group_from_cfg(ctx, cfg):
    return build_group(ctx, cfg["l"], _parse_Q(ctx, cfg["Q"], monic=True), budget=cfg["budget"])


def run_hayes_lfunc(ctx, cfg, rng):
    g = _group_from_cfg(ctx, cfg)
    rows = []
    for char in g.characters():
        if char.is_principal:
            continue
        lp = l_polynomial(char, cfg["nmax"], budget=cfg["budget"])
        for n, c in enumerate(lp.coeffs):
            rows.append((char.char_id, n, c.real, c.imag, abs(c)))
    return ["lambda_id", "n", "re_cn", "im_cn", "abs_cn"], rows


def run_rh_check(ctx, cfg, rng):
    g = _group_from_cfg(ctx, cfg)
    rows = []
    for char in g.characters():
        if char.is_principal:
            continue
        for root, modulus, label in rh_check(char, budget=cfg["budget"]):
            rows.append((char.char_id, root.real, root.imag, modulus, label))
    return ["lambda_id", "root_re", "root_im", "modulus", "class"], rows


def run_euler_check(ctx, cfg, rng):
    g = _group_from_cfg(ctx, cfg)
    rows = []
    logq = np.log(ctx.q)
    for char in g.characters():
        if char.is_principal:
            continue
        for n, resid, s in euler_inverse_check(char, cfg["nmax"], budget=cfg["budget"]):
            expo = float(np.log(abs(s)) / (n * logq)) if abs(s) > 0 and n > 0 else None
            rows.append((char.char_id, n, resid, abs(s), expo))
    return ["lambda_id", "n", "residual", "abs_mu_sum", "empirical_exponent"], rows


def run_principal_check(ctx, cfg, rng):
    Q = _parse_Q(ctx, cfg["Q"], monic=False)
    rows = [
        (n, enum, series, True)
        for n, enum, series in principal_check(ctx, Q, cfg["nmax"], budget=cfg["budget"])
    ]
    return ["n", "enum_sum", "series_coeff", "ok"], rows


def run_logderiv_check(ctx, cfg, rng):
    g = _group_from_cfg(ctx, cfg)
    rows = []
    for char in g.characters():
        if char.is_principal:
            continue
        for l, lhs, rhs, resid in log_deriv_check(char, cfg["lmax"], budget=cfg["budget"]):
            rows.append((char.char_id, l, lhs.real, lhs.imag, resid))
    return ["lambda_id", "l", "re_sum", "im_sum", "residual"], rows


def run_linear_corr(ctx, cfg, rng):
    n = cfg["n"]
    alpha = _parse_alpha(ctx, cfg["alpha"], rng, n + 1, "--alpha", n + (cfg["domain"] == "A"))
    rep = linear_corr(ctx, n, alpha, cfg["domain"], cfg["budget"])
    s = rep.sum(ctx)
    rows = [
        (
            n,
            cfg["domain"],
            rep.phase,
            s.real,
            s.imag,
            rep.abs(ctx),
            rep.empirical_exponent(ctx),
            rep.terms,
            ";".join(map(str, rep.hist)),
        )
    ]
    return ["n", "domain", "phase", "re_sum", "im_sum", "abs", "empirical_exponent", "terms", "hist"], rows


def run_quad_corr(ctx, cfg, rng):
    if ctx.p == 2:
        raise UsageError(f"--field {cfg['field']}: quad-corr requires odd characteristic (p > 2)")
    n = cfg["n"]
    rows = []
    for trial in range(cfg["trials"]):
        qp = _random_quad_phase(ctx, n, rng())
        rep = quad_corr(ctx, n, qp, cfg["budget"])
        s = rep.sum(ctx)
        rows.append((trial, n, rep.phase, s.real, s.imag, rep.abs(ctx), rep.empirical_exponent(ctx)))
    return ["trial", "n", "phase", "re_sum", "im_sum", "abs", "empirical_exponent"], rows


def run_hankel_corr(ctx, cfg, rng):
    n = cfg["n"]
    rows = []
    for trial in range(cfg["trials"]):
        alpha = _parse_alpha(ctx, cfg["alpha"], rng, 2 * n + 2, "--alpha", 2 * n - 1)
        beta = _parse_alpha(ctx, cfg["beta"], rng, n + 1, "--beta", n)
        rep = hankel_corr(ctx, n, alpha, beta, cfg["budget"])
        s = rep.sum(ctx)
        rows.append((trial, n, rep.phase, s.real, s.imag, rep.abs(ctx), rep.empirical_exponent(ctx)))
    return ["trial", "n", "phase", "re_sum", "im_sum", "abs", "empirical_exponent"], rows


def run_vaughan_audit(ctx, cfg, rng):
    n = cfg["n"]
    # unset, u and v take vaughan_decompose's default n // 18
    u = n // 18 if cfg["u"] is None else cfg["u"]
    v = n // 18 if cfg["v"] is None else cfg["v"]
    if u + v >= n:
        raise UsageError(f"--u {u} + --v {v} must be < --n {n}")
    phase = LinearPhase(sample_torus(ctx, rng(), n + 2))
    rep = vaughan_decompose(ctx, n, phase, u, v, cfg["budget"])
    rows = [
        ("n", n),
        ("u", rep.u),
        ("v", rep.v),
        ("phase", phase.descriptor()),
        ("t1", fmt(rep.t1)),
        ("t2", fmt(rep.t2)),
        ("direct", fmt(rep.direct)),
        ("residual", fmt(rep.residual)),
        ("restricted_residual", fmt(rep.restricted_residual)),
        ("pass_degrees", ";".join(map(str, rep.pass_degrees))),
        ("fail_degrees", ";".join(map(str, rep.fail_degrees))),
        ("pointwise_failures", ";".join(p.format() for p in rep.pointwise_failures)),
        ("coefficient_bound_ok", fmt(rep.coefficient_bound_ok)),
    ]
    for k, ms in type_one_mean_square(ctx, n, phase, rep.u + rep.v, cfg["budget"]):
        rows.append((f"t1_mean_square_k{k}", fmt(ms)))
    return ["item", "value"], rows


def run_gauss_sums(ctx, cfg, rng):
    if ctx.p == 2:
        raise UsageError(f"--field {cfg['field']}: gauss-sums requires odd characteristic (p > 2)")
    n = cfg["n"]
    rows = []
    for trial in range(cfg["trials"]):
        qp = _random_quad_phase(ctx, n, rng())
        pure = trial % 2 == 0
        if pure:
            qp = QuadPhase(ctx, qp.M, np.zeros(n, dtype=np.int64), qp.c, qp.r)
        mean = gauss_mean(qp, budget=cfg["budget"])
        bound = float(ctx.q) ** (-qp.effective_rank() / 2)
        rows.append((trial, n, qp.rank(), pure, abs(mean), bound, True))
    return ["trial", "n", "rank", "pure", "abs_mean", "bound", "ok"], rows


def run_isotropic(ctx, cfg, rng):
    if ctx.s != 1:
        raise UsageError(f"--field {cfg['field']}: isotropic counting is over prime fields")
    n, r = cfg["n"], cfg["r"]
    rows = []
    for trial in range(cfg["trials"]):
        forms = [_random_symmetric(rng(), n, ctx.p) for _ in range(r)]
        count, bound = isotropic_count(ctx, forms, n, budget=cfg["budget"])
        rows.append((trial, n, r, count, bound, True))
    return ["trial", "n", "r", "count", "bound", "ok"], rows


def run_rank_stats(ctx, cfg, rng):
    n, k, h = cfg["n"], cfg["k"], cfg["h"]
    if k > n:
        raise UsageError(f"--k {k} must lie in 0..{n}, the value of --n")
    if cfg["mode"] == "sampled":
        if cfg["samples"] < 1:
            raise UsageError(f"--samples {cfg['samples']} must be >= 1 in sampled mode")
        if ctx.q ** (k + 1) > 2**63:
            raise UsageError(f"--k {k} must keep {ctx.q}^{k + 1} <= 2^63 in sampled mode")
    alpha = sample_torus(ctx, rng(), 2 * n + 2)
    M = hankel_matrix(alpha, n)
    rs = rank_stats(
        ctx, M, k, h, mode=cfg["mode"], samples=cfg["samples"], seed=cfg["seed"], budget=cfg["budget"]
    )
    hist = ";".join(f"{r}:{c}" for r, c in rs.histogram.items())
    rows = [
        (k, h, rs.density.numerator, rs.density.denominator, rs.total, rs.mode, alpha.format(), hist)
    ]
    return ["k", "h", "density_num", "density_den", "total", "mode", "alpha", "histogram"], rows


def run_exponent_sweep(ctx, cfg, rng):
    if ctx.p == 2 and cfg["experiment"] == "quadratic":
        raise UsageError(f"--field {cfg['field']}: --experiment quadratic requires odd characteristic (p > 2)")
    ns = range(cfg["nmin"], cfg["nmax"] + 1)
    rows = exponent_sweep(ctx, cfg["experiment"], ns, cfg["samples"], cfg["seed"], cfg["budget"])
    return ["n", "samples", "max_abs", "mean_abs", "max_exponent"], rows


# Every subcommand once: its runner and its own flags (after COMMON_FLAGS).
SUBCOMMANDS = {
    "pnt": (run_pnt, ("lmax",)),
    "mobius-sums": (run_mobius_sums, ("nmax",)),
    "divisor-moments": (run_divisor_moments, ("nmax",)),
    "hayes-lfunc": (run_hayes_lfunc, ("l", "Q", "nmax")),
    "rh-check": (run_rh_check, ("l", "Q")),
    "euler-check": (run_euler_check, ("l", "Q", "nmax")),
    "principal-check": (run_principal_check, ("Q", "nmax")),
    "logderiv-check": (run_logderiv_check, ("l", "Q", "lmax")),
    "linear-corr": (run_linear_corr, ("n", "alpha", "domain")),
    "quad-corr": (run_quad_corr, ("n", "trials")),
    "hankel-corr": (run_hankel_corr, ("n", "alpha", "beta", "trials")),
    "vaughan-audit": (run_vaughan_audit, ("n", "u", "v")),
    "gauss-sums": (run_gauss_sums, ("n", "trials")),
    "isotropic": (run_isotropic, ("n", "r", "trials")),
    "rank-stats": (run_rank_stats, ("n", "k", "h", "mode", "samples")),
    "exponent-sweep": (run_exponent_sweep, ("experiment", "nmin", "nmax", "samples")),
}


SERIES_FLAGS = ("--alpha", "--beta")


def _join_series_literals(argv: list) -> list:
    """Rejoin `--alpha -1:...` as `--alpha=-1:...`.

    argparse reads a separate token that starts with '-' as an option, so a
    series literal with a negative top degree would otherwise leave
    --alpha/--beta without its argument."""
    out = []
    for tok in argv:
        if out and out[-1] in SERIES_FLAGS and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _join_series_literals(sys.argv[1:] if argv is None else argv)
    args = _read_exact(argv) or _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        try:
            ctx = parse_field(str(cfg["field"]), cfg["budget"])  # a config file may give a number
        except (ValueError, BudgetExceeded) as exc:
            raise UsageError(f"--field {cfg['field']}: {exc}") from exc
        seed = cfg["seed"]
        rng = functools.cache(lambda: np.random.default_rng(seed))
        columns, rows = SUBCOMMANDS[args.subcommand][0](ctx, cfg, rng)
        write_report(args.subcommand, cfg, columns, rows)
        return 0
    except IdentityCheckError as exc:
        print(f"identity violated: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, PrecisionExceeded, CharacteristicError, UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # a json.JSONDecodeError is a ValueError
        return 2


if __name__ == "__main__":
    sys.exit(main())
