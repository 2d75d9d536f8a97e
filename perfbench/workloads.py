"""The two benchmark workloads, generated from a seed.

Each workload is a job list that the runner repeats as a closed loop: one
job at a time, each pass in fresh processes; a job's "proc" names the
process of the pass it runs in.  The seed chooses every phase, modulus and
(u, v) orientation; the sizes and the job order are fixed, so that the work
per pass does not depend on the seed (jobs share sieves and tables, so their
order changes what each one builds).  This module uses only the standard
library, so the runner never imports ffmobius itself.

Why each workload exists:

- corr-cold: cold CLI correlation commands, one process per job, as users
  run them.  The MonicSieve build is most of the time; in-process sieve reuse
  cannot hide a slow build here.
- in-process: three groups of library calls, one process each.  The
  exponent sweeps (workers=2): the phase_hist kernels do most of the work,
  on both the s=1 and the s>1 paths, while the sieve is grown one degree at
  a time.  The pointwise Vaughan audit, decompositions and type I mean
  squares: convolve_monic does most of the work, and phase_hist is called
  on tiny ranges (its per-call overhead).  The Hayes character groups
  G(l, Q) with l <= 2, deg Q <= 3: the hayes and polys Python loops
  dominate, and the kernels are not used.
"""

from __future__ import annotations

import random

WORKLOADS = ("corr-cold", "in-process")

# Sizes, tuned so that one pass takes a few seconds and the layer each job
# group was chosen for holds the largest self time of its process (README.md).
CORR_COLD = [
    # (subcommand, field, q, n, domain)
    ("linear-corr", "3", 3, 10, "G"),
    ("linear-corr", "3", 3, 9, "A"),
    ("linear-corr", "2", 2, 14, "A"),
    ("linear-corr", "2", 2, 13, "G"),
    ("linear-corr", "2^2", 4, 8, "G"),
    ("linear-corr", "5", 5, 7, "G"),
    ("hankel-corr", "3", 3, 9, None),
    ("hankel-corr", "2", 2, 12, None),
]
PHASE_SWEEP = [
    # (field, experiment, nmin, nmax, samples)
    ("3", "hankel", 2, 10, 6),
    ("2", "hankel", 2, 14, 6),
    ("2^2", "hankel", 2, 7, 6),
    ("3", "quadratic", 2, 9, 6),
]
SWEEP_WORKERS = 2
VAUGHAN_AUDIT = ("3", 9, [(1, 2), (2, 2), (1, 3), (2, 3)])  # field, D, {u, v}
VAUGHAN_DECOMPOSE = [("2", 2, 10, (1, 2)), ("3", 3, 8, (1, 1))]  # field, q, n, {u, v}
HAYES_FIELDS = (2, 3)  # prime fields only: the moduli are built here
HAYES_LMAX = 2
HAYES_QDEGMAX = 3
HAYES_ORDER_BUDGET = 1000


def _series(rng: random.Random, q: int, prec: int) -> str:
    """A Laurent series literal -1:c_-1,...,c_-prec with random coefficients."""
    return "-1:" + ",".join(str(rng.randrange(q)) for _ in range(prec))


def _oriented(rng: random.Random, pair):
    u, v = pair
    return (u, v) if rng.random() < 0.5 else (v, u)


# -- small F_p[t] helpers, used to stratify the Hayes moduli and to give the
# principal-character series independently of the library -------------------


def _fp_divmod(a: list, b: list, p: int):
    a = list(a)
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        quot[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _monic(p: int, d: int):
    for code in range(p**d):
        yield [(code // p**i) % p for i in range(d)] + [1]


def factor_degrees(coeffs: list, p: int) -> list:
    """(degree, multiplicity) of each monic irreducible factor, by trial division."""
    f, out = list(coeffs), []
    for d in range(1, len(coeffs)):
        for g in _monic(p, d):
            if len(f) - 1 < d:
                break
            e = 0
            while len(f) - 1 >= d:
                quot, rem = _fp_divmod(f, g, p)
                if rem:
                    break
                f, e = quot, e + 1
            if e:
                out.append((d, e))
    return out


def euler_phi(coeffs: list, p: int) -> int:
    phi = 1
    for d, e in factor_degrees(coeffs, p):
        phi *= p ** (d * (e - 1)) * (p**d - 1)
    return phi


def principal_series(coeffs: list, p: int, n_max: int) -> list:
    """z^n coefficients of (1 - p z) / prod over distinct P | Q of (1 - z^deg P)."""
    series = [1, -p] + [0] * (n_max - 1)
    for d, _ in factor_degrees(coeffs, p):
        for n in range(d, n_max + 1):
            series[n] += series[n - d]
    return series[: n_max + 1]


def hayes_moduli(rng: random.Random, p: int) -> list:
    """One monic Q per (deg Q, phi(Q)) stratum, chosen by the seed.

    Group orders q^l phi(Q), and so the work, are the same for every seed."""
    chosen = []
    for m in range(HAYES_QDEGMAX + 1):
        strata: dict = {}
        for coeffs in _monic(p, m):
            strata.setdefault(euler_phi(coeffs, p), []).append(coeffs)
        for phi in sorted(strata):
            chosen.append(rng.choice(strata[phi]))
    return chosen


# -- job lists ------------------------------------------------------------------


def _cli_jobs(rng: random.Random) -> list:
    out = []
    for sub, field, q, n, domain in CORR_COLD:
        argv = [sub, "--field", field, "--n", str(n), "--workers", "1",
                "--seed", str(rng.randrange(2**31))]
        if sub == "linear-corr":
            argv += [f"--alpha={_series(rng, q, n + 1)}", "--domain", domain]
        else:
            argv += [f"--alpha={_series(rng, q, 2 * n + 2)}",
                     f"--beta={_series(rng, q, n + 1)}"]
        out.append({"kind": "cli", "field": field, "q": q, "n": n,
                    "domain": domain or "G", "argv": argv, "proc": len(out)})
    return out


def _sweep_jobs(rng: random.Random) -> list:
    return [{"kind": "sweep", "field": field, "experiment": experiment,
             "nmin": nmin, "nmax": nmax, "samples": samples,
             "seed": rng.randrange(2**31), "workers": SWEEP_WORKERS}
            for field, experiment, nmin, nmax, samples in PHASE_SWEEP]


def _vaughan_jobs(rng: random.Random) -> list:
    out = []
    field, D, shapes = VAUGHAN_AUDIT
    for shape in shapes:
        u, v = _oriented(rng, shape)
        out.append({"kind": "audit", "field": field, "D": D, "u": u, "v": v})
    for field, q, n, shape in VAUGHAN_DECOMPOSE:
        u, v = _oriented(rng, shape)
        out.append({"kind": "decompose", "field": field, "n": n, "u": u, "v": v,
                    "alpha": _series(rng, q, n + 2)})
        out.append({"kind": "t1ms", "field": field, "n": n, "k_max": u + v,
                    "alpha": _series(rng, q, n + 2)})
    return out


def _hayes_jobs(rng: random.Random) -> list:
    out = []
    for p in HAYES_FIELDS:
        for coeffs in hayes_moduli(rng, p):
            m = len(coeffs) - 1
            out.append({"kind": "hayes", "field": str(p), "Q": ",".join(map(str, coeffs)),
                        "lmax": HAYES_LMAX, "budget": HAYES_ORDER_BUDGET,
                        "principal": principal_series(coeffs, p, HAYES_LMAX + m + 2)})
    return out


def jobs(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corr-cold":
        out = _cli_jobs(rng)
    elif workload == "in-process":
        # one process per group, so that no group reuses another's sieves
        out = []
        for proc, group in enumerate((_sweep_jobs, _vaughan_jobs, _hayes_jobs)):
            out += [dict(job, proc=proc) for job in group(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(out):
        job["id"] = f"{i:02d}-{job['kind']}"
    return out
