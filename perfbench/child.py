"""One benchmark process: set up, run a job list, check every result.

Usage: python child.py SPEC.json RESULT.json

SPEC holds the package source directory, the jobs, whether to trace, and
where to append spans.  The child times its set-up (importing ffmobius and
building the workload's fields) apart from the jobs, checks each job's
result exactly after the timed region, and writes RESULT as JSON.
"""

import sys
import time

T0 = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402

import tracing  # noqa: E402


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy as np

    import ffmobius
    from ffmobius import fields, sieve

    if any(job["kind"] == "cli" for job in spec["jobs"]):
        import ffmobius.cli

    tracer = tracing.Tracer() if spec["trace"] else None
    captured = Capture(spec["check_seed"])
    if tracer is not None:
        tracer.install()
    ctxs = {f: fields.parse_field(f) for f in sorted({job["field"] for job in spec["jobs"]})}
    t_setup = time.perf_counter()

    outcomes = []
    cpu0 = time.process_time()
    t_jobs0 = time.perf_counter()
    for job in spec["jobs"]:
        start = len(captured.reports)
        scope = tracer.job_span(job["id"]) if tracer is not None else nullcontext()
        laps = Laps()
        try:
            with scope:
                result = RUNNERS[job["kind"]](ctxs[job["field"]], job, laps.lap)
            outcomes.append({"id": job["id"], "result": result,
                             "reports": captured.reports[start:]})
        except Exception:
            outcomes.append({"id": job["id"], "error": traceback.format_exc(limit=4)})
        laps.lap()
        outcomes[-1]["laps"] = laps.times
    t_jobs1 = time.perf_counter()
    cpu1 = time.process_time()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.enabled = False

    # checks run after the timed region
    jobs_by_id = {job["id"]: job for job in spec["jobs"]}
    results = []
    for out in outcomes:
        job = jobs_by_id[out["id"]]
        entry = {"id": out["id"], "ok": False, "laps": out["laps"]}
        if "error" in out:
            entry["error"] = out["error"]
        else:
            try:
                entry["digest"] = CHECKS[job["kind"]](ctxs[job["field"]], job, out["result"],
                                                       out["reports"], np)
                entry["ok"] = True
            except Exception:
                entry["error"] = traceback.format_exc(limit=4)
        results.append(entry)
    oracle_error = None
    if spec["oracle"]:
        try:
            check_sieves(sieve, spec["check_seed"], np)
            check_kernel(captured, np)
        except Exception:
            oracle_error = traceback.format_exc(limit=4)

    doc = {
        "setup_s": t_setup - T0,
        "wall_s": t_jobs1 - t_jobs0,
        "cpu_s": cpu1 - cpu0,
        "maxrss_kb": maxrss_kb,
        "jobs": results,
        "oracle_error": oracle_error,
    }
    if tracer is not None:
        raw = tracer.raw_metrics()
        finals = list(sieve._SIEVES.values())
        raw["sieve.final_codes"] = sum(sv.ctx.q**sv.max_deg for sv in finals)
        raw["sieve.bytes"] = sum(tracing.nbytes(sv) for sv in finals)
        raw["cache.entries"], raw["cache.bytes"] = tracing.cache_stats()
        raw["cli.out_bytes"] = sum(len(o["result"].encode()) for o in outcomes
                                   if isinstance(o.get("result"), str))
        doc["raw"] = raw
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"], spec.get("proc", 0))
    with open(result_path, "w") as fh:
        json.dump(doc, fh)


class Laps:
    """A job's wall and CPU time, split at the points its runner marks.

    Every lap is a fixed step of the job (the same steps in every pass), so
    the runner can take each step's fastest time over a run's passes."""

    def __init__(self):
        self.times = []
        self.t, self.cpu = time.perf_counter(), time.process_time()

    def lap(self):
        t, cpu = time.perf_counter(), time.process_time()
        self.times.append((t - self.t, cpu - self.cpu))
        self.t, self.cpu = t, cpu


class Capture:
    """Record what the correlation layer computes, for the checks that run
    after the timed region.

    exponent_sweep and the CLI keep only floats, so the exact histogram of
    every correlation report is taken at the public functions that build
    them.  Calls number 1, 2, 4, 8, ... to phase_hist of each field and
    phase class keep their phase and a seeded window of at most WINDOW codes
    of their range, with its weights and, when the window is the whole
    range, the histogram."""

    def __init__(self, seed):
        import inspect
        import random

        self.reports = []
        self.calls = []
        self.kernel = sys.modules["ffmobius.correlations"].phase_hist
        rng = random.Random(seed)
        signature = inspect.signature(self.kernel)
        ncalls = Counter()

        def report(fn):
            def capturing(*a, **k):
                rep = fn(*a, **k)
                self.reports.append((rep.kind, rep.n, rep.q, rep.phase, list(rep.hist)))
                return rep

            return capturing

        def kernel(fn):
            def capturing(*a, **k):
                hist = fn(*a, **k)
                key = (a[0], type(a[1]))  # library calls pass ctx and phase by position
                ncalls[key] += 1
                if ncalls[key] & (ncalls[key] - 1) == 0:
                    args = signature.bind(*a, **k)
                    args.apply_defaults()
                    ctx, phase, ncoords, lo, hi, weights, _ = args.arguments.values()
                    lo_w = lo + rng.randrange(max(hi - lo - WINDOW, 0) + 1)
                    hi_w = min(lo_w + WINDOW, hi)
                    w = None if weights is None else weights[lo_w:hi_w].copy()
                    whole = hist.copy() if (lo_w, hi_w) == (lo, hi) else None
                    self.calls.append((ctx, phase, ncoords, lo_w, hi_w, w, whole))
                return hist

            return capturing

        for name in ("linear_corr", "quad_corr", "hankel_corr"):
            tracing.replace_everywhere("correlations", name, report)
        tracing.replace_everywhere("correlations", "phase_hist", kernel)


# -- job runners ---------------------------------------------------------------


def run_cli(ctx, job, lap):
    from ffmobius import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(job["argv"])
    require(code == 0, f"exit code {code}")
    return buf.getvalue()


def run_sweep(ctx, job, lap):
    """One single-sample exponent_sweep call per sample and n, each seeded
    from the job's seed, with a lap after each."""
    from ffmobius import correlations

    rows = []
    for n in range(job["nmin"], job["nmax"] + 1):
        for i in range(job["samples"]):
            rows += correlations.exponent_sweep(ctx, job["experiment"], [n], 1,
                                                job["seed"] + 100 * n + i, workers=job["workers"])
            lap()
    return rows


def run_audit(ctx, job, lap):
    from ffmobius import correlations

    return correlations.vaughan_pointwise_audit(ctx, job["D"], job["u"], job["v"])


def _linear_phase(ctx, literal):
    from ffmobius import correlations, laurent

    return correlations.LinearPhase(laurent.LaurentSeries.parse(ctx, literal))


def run_decompose(ctx, job, lap):
    from ffmobius import correlations

    return correlations.vaughan_decompose(ctx, job["n"], _linear_phase(ctx, job["alpha"]),
                                          job["u"], job["v"], workers=1)


def run_t1ms(ctx, job, lap):
    from ffmobius import correlations

    return correlations.type_one_mean_square(ctx, job["n"], _linear_phase(ctx, job["alpha"]),
                                             job["k_max"], workers=1)


def run_hayes(ctx, job, lap):
    """One modulus Q; a lap after each library call."""
    from ffmobius import hayes, polys

    Q = polys.Poly.parse(ctx, job["Q"])
    m = int(Q.deg)
    groups = []
    for l in range(job["lmax"] + 1):
        try:
            g = hayes.build_group(ctx, l, Q, budget=job["budget"])
        except hayes.BudgetExceeded:
            continue
        finally:
            lap()
        chars = []
        for ch in g.characters():
            if ch.is_principal:
                continue
            lp = hayes.l_polynomial(ch, l + m + 2)
            lap()
            rh = hayes.rh_check(ch)
            lap()
            eu = hayes.euler_inverse_check(ch, l + m + 2)
            lap()
            ld = hayes.log_deriv_check(ch, l + m + 1)
            lap()
            chars.append((lp, rh, eu, ld))
        groups.append((l, g.order, chars))
    principal = hayes.principal_check(ctx, Q, job["lmax"] + m + 2)
    return {"groups": groups, "principal": principal}


RUNNERS = {"cli": run_cli, "sweep": run_sweep, "audit": run_audit,
           "decompose": run_decompose, "t1ms": run_t1ms, "hayes": run_hayes}


# -- checks -----------------------------------------------------------------------

TOL = 1e-6  # the acceptance suite's tolerance for float identities


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _r(x: float) -> float:
    return round(float(x), 6) + 0.0  # + 0.0 folds -0.0 into 0.0


def _hist_value(ctx, hist, np):
    h = np.array(hist, dtype=np.int64)
    return complex(h @ np.exp(2j * np.pi * np.arange(ctx.p) / ctx.p))


def g_mu_total(q, n):
    """Sum of mu over G_n (every polynomial of degree < n, mu(0) = 0)."""
    monic = [1, -q] + [0] * n  # sum of mu over A_0, A_1, A_2, ...
    return (q - 1) * sum(monic[:n])


def a_mu_total(q, n):
    return [1, -q][n] if n < 2 else 0


def check_reports(ctx, reports, np, expect_n=None):
    for kind, n, q, phase, hist in reports:
        total = a_mu_total(q, n) if kind == "linear/A" else g_mu_total(q, n)
        require(sum(hist) == total, f"{kind} n={n}: histogram total {sum(hist)} != {total}")
        require(len(hist) == ctx.p, "histogram length")
    if expect_n is not None:
        require(sorted(r[1] for r in reports) == sorted(expect_n), "report count")


def check_cli(ctx, job, out, reports, np):
    lines = out.splitlines()
    require(lines and lines[0].startswith("# ffmobius"), "missing header line")
    rows = list(csv.reader(lines[2:]))
    check_reports(ctx, reports, np, [job["n"]])
    kind, n, q, phase, hist = reports[0]
    require(len(rows) == 1, "one result row")
    cols = rows[0]
    value = _hist_value(ctx, hist, np)
    require(abs(float(cols[3]) - value.real) < TOL and abs(float(cols[4]) - value.imag) < TOL,
            "printed sum disagrees with the histogram")
    if job["argv"][0] == "linear-corr":
        require(cols[-1] == ";".join(map(str, hist)), "printed histogram")
    return digest([out, reports])


def check_sweep(ctx, job, rows, reports, np):
    ns = [n for n in range(job["nmin"], job["nmax"] + 1) for _ in range(job["samples"])]
    check_reports(ctx, reports, np, ns)
    require([r[0] for r in rows] == [r[1] for r in reports] == ns, "one row per sample")
    for (n, samples, mx, mean, _), report in zip(rows, reports):
        value = abs(_hist_value(ctx, report[4], np))
        require(samples == 1 and abs(mx - value) < TOL and abs(mean - value) < TOL,
                f"n={n}: row disagrees with the histogram")
    return digest(reports)


def check_audit(ctx, job, audit, reports, np):
    u, v = job["u"], job["v"]
    require((audit.u, audit.v, audit.max_deg) == (u, v, job["D"]), "audit echo")
    require(all(d <= u + v for d in audit.fail_degrees), f"fail degrees {audit.fail_degrees}")
    require(audit.failure_count >= len(audit.failures), "failure count")
    return digest([list(audit.fail_degrees), audit.failure_count,
                   [f.code for f in audit.failures]])


def check_decompose(ctx, job, rep, reports, np):
    u, v = job["u"], job["v"]
    require(rep.restricted_residual < TOL, f"restricted residual {rep.restricted_residual}")
    require(all(d <= u + v for d in rep.fail_degrees), f"fail degrees {rep.fail_degrees}")
    require(sorted(rep.pass_degrees + tuple(d for d in rep.fail_degrees if d < rep.n))
            == list(range(rep.n)), "pass and fail degrees partition 0..n-1")
    return digest([_r(rep.t1.real), _r(rep.t1.imag), _r(rep.t2.real), _r(rep.t2.imag),
                   _r(rep.direct.real), _r(rep.direct.imag), list(rep.fail_degrees),
                   [f.code for f in rep.pointwise_failures]])


def check_t1ms(ctx, job, rows, reports, np):
    # each inner mean is a character sum over a group: exactly 0 or 1 in
    # absolute value, so q^k times the k-th row is an integer
    require([k for k, _ in rows] == list(range(job["k_max"] + 1)), "one row per k")
    for k, ms in rows:
        scaled = ms * ctx.q**k
        require(abs(scaled - round(scaled)) < TOL and 0 <= round(scaled) <= ctx.q**k,
                f"k={k}: mean square {ms} is not a count over q^k")
    return digest([[k, round(ms * ctx.q**k)] for k, ms in rows])


def check_hayes(ctx, job, res, reports, np):
    q = ctx.q
    m = len(job["Q"].split(",")) - 1
    out = []
    for l, order, chars in res["groups"]:
        require(len(chars) == order - 1, f"l={l}: non-principal character count")
        bound = l + m
        for lp, rh, eu, ld in chars:
            require(abs(lp.coeffs[0] - 1) < TOL, "c_0 = 1")
            require(lp.degree < bound or bound == 0, "degree bound")
            require(all(abs(c) < TOL for c in lp.coeffs[bound:]), "c_n vanishes past l + deg Q")
            require(len(rh) == lp.degree and all(lab in ("1", "q^-1/2") for _, _, lab in rh),
                    "root moduli")
            require(all(r < TOL for _, r, _ in eu), "Euler inverse residuals")
            require(all(r < TOL for _, _, _, r in ld), "log-derivative residuals")
            out.append([l, [[_r(c.real), _r(c.imag)] for c in lp.coeffs],
                        sorted(lab for _, _, lab in rh)])
    rows = res["principal"]
    require([e for _, e, _ in rows] == job["principal"] == [s for _, _, s in rows],
            "principal sums differ from the closed form")
    require(q == int(job["field"]), "prime field")
    return digest([out, job["principal"]])


CHECKS = {"cli": check_cli, "sweep": check_sweep, "audit": check_audit,
          "decompose": check_decompose, "t1ms": check_t1ms, "hayes": check_hayes}


WINDOW = 48  # codes per checked phase_hist call


def oracle_exponent(ctx, phase, ncoords, code):
    """omega_p exponent of phase at the polynomial with this code, by series
    and polynomial arithmetic rather than the kernel's digit tables."""
    from ffmobius import polys

    f = polys.Poly.from_code(ctx, code)
    kind = type(phase).__name__
    if kind == "LinearPhase":  # Tr((alpha f)_{-1})
        return phase.alpha.mul_poly(f).e_exponent()
    if kind == "HankelPhase":  # Tr((alpha f^2 + beta f)_{-1})
        e = phase.alpha.mul_poly(f * f).e_exponent()
        if phase.beta is not None:
            e += phase.beta.mul_poly(f).e_exponent()
        return e % ctx.p
    if kind == "QuadraticPhase":  # Tr(r (x^T M x + b.x + c))
        qp = phase.qp
        x = [f.coefficient(i) for i in range(ncoords)]
        v = int(qp.c)
        for i in range(ncoords):
            row = int(qp.b[i])
            for j in range(ncoords):
                row = ctx.add(row, ctx.mul(int(qp.M[i, j]), x[j]))
            v = ctx.add(v, ctx.mul(x[i], row))
        return ctx.trace(ctx.mul(int(qp.r), v))
    raise CheckFailed(f"no oracle for phase class {kind}")


def check_kernel(captured, np):
    """Each captured phase_hist window against the oracle: the histogram
    itself when the window is the call's whole range, otherwise the kernel
    rerun on just that window."""
    for ctx, phase, ncoords, lo, hi, w, whole in captured.calls:
        want = np.zeros(ctx.p, dtype=np.int64)
        for code in range(lo, hi):
            want[oracle_exponent(ctx, phase, ncoords, code)] += 1 if w is None else int(w[code - lo])
        if whole is None:
            weights = None
            if w is not None:
                weights = np.zeros(hi, dtype=w.dtype)
                weights[lo:] = w
            whole = captured.kernel(ctx, phase, ncoords, lo, hi, weights)
        require(np.array_equal(whole, want),
                f"phase_hist {phase.descriptor()} on [{lo}, {hi}): {list(whole)} != {list(want)}")


def check_sieves(sieve_mod, seed, np):
    """A seeded sample of every cached sieve against the polys oracle."""
    from ffmobius import polys

    rng = np.random.default_rng(seed)
    for sv in sieve_mod._SIEVES.values():
        q = sv.ctx.q
        for _ in range(24):
            d = int(rng.integers(1, sv.max_deg + 1))
            code = q**d + int(rng.integers(0, q**d))
            f = polys.Poly.from_code(sv.ctx, code)
            got = (int(sv.mu[code]), int(sv.mangoldt[code]), int(sv.tau[code]))
            want = (polys.mobius(f), polys.mangoldt(f), polys.tau(f))
            require(got == want, f"sieve entry {code} over F_{q}: {got} != {want}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
