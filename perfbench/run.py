#!/usr/bin/env python3
"""ffmobius benchmark runner.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Repeats the workload's job list as a closed
loop for S seconds, each pass in fresh child processes (empty module
caches, a clean working directory), and checks every job's result.  An
untimed pass of the reference seed comes first; its results must match
reference.json.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates traced and untraced passes and reports the
per-layer metrics.  The last
line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 when every job passed its check, 1 otherwise, and 2
when the package source is missing.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"  # per-job digests of REFERENCE_SEED, by workload
REFERENCE_SEED = 0
CHILD_TIMEOUT = 150  # seconds; one child never gets near it

# per-layer metrics that are counts of work: they must repeat exactly
COUNTS = [
    "sieve.builds", "sieve.codes_built", "sieve.product_calls", "sieve.bytes",
    "sieve.convolve_calls", "kernel.items", "kernel.calls", "vaughan.rhs_calls",
    "polys.poly_objects", "laurent.mul_poly_calls", "hayes.groups_tried",
    "hayes.groups_built", "hayes.characters", "hayes.class_weights_calls",
    "hayes.lpoly_calls", "cli.out_bytes", "cache.bytes", "cache.entries", "trace.spans",
]


def _ratio(a, b):
    return a / b if b else 0.0


def derive(raw: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a pass's summed raw sums."""
    g = lambda key: raw.get(key, 0.0)  # noqa: E731
    kernel_s = g("span_s:kernel.phase_hist")
    items = sum(g(f"kernel.items:{ph}") for ph in ("LinearPhase", "HankelPhase", "QuadraticPhase"))
    tried = g("calls:hayes.build_group")
    built = tried - g("errors:hayes.build_group")
    chars = g("hayes.characters")
    wall = g("jobs_wall_s")
    m = {
        "sieve.build_s": (g("span_s:sieve.build"), "s"),
        "sieve.ns_per_code": (1e9 * _ratio(g("span_s:sieve.build"), g("sieve.codes_built")), "ns"),
        "sieve.builds": (g("calls:sieve.build"), "count"),
        "sieve.codes_built": (g("sieve.codes_built"), "count"),
        "sieve.useful_frac": (_ratio(g("sieve.final_codes"), g("sieve.codes_built")), "ratio"),
        "sieve.product_calls": (g("count:sieve.product_calls"), "count"),
        "sieve.bytes": (g("sieve.bytes"), "bytes"),
        "sieve.mu_g_s": (g("self_s:sieve.mu_g"), "s"),
        "sieve.convolve_s": (g("span_s:sieve.convolve"), "s"),
        "sieve.convolve_calls": (g("calls:sieve.convolve"), "count"),
        "kernel.s": (kernel_s, "s"),
        "kernel.items": (items, "count"),
        "kernel.cpu_per_wall": (_ratio(g("kernel.cpu_s"), kernel_s), "ratio"),
        "kernel.calls": (g("calls:kernel.phase_hist"), "count"),
        "kernel.small_call_frac": (_ratio(g("kernel.small_calls"), g("calls:kernel.phase_hist")),
                                   "ratio"),
        "corr.self_s": (sum(g(f"self_s:corr.{f}") for f in
                            ("linear_corr", "quad_corr", "hankel_corr", "exponent_sweep")), "s"),
        "vaughan.audit_s": (g("span_s:vaughan.audit"), "s"),
        "vaughan.rhs_s": (g("span_s:vaughan.rhs"), "s"),
        "vaughan.rhs_calls": (g("calls:vaughan.rhs"), "count"),
        "vaughan.decompose_self_s": (g("self_s:vaughan.decompose"), "s"),
        "vaughan.t1ms_s": (g("span_s:vaughan.t1ms"), "s"),
        "polys.poly_objects": (g("count:polys.poly_objects"), "count"),
        "laurent.mul_poly_calls": (g("calls:laurent.mul_poly"), "count"),
        "fields.setup_s": (g("fields.setup_s"), "s"),
        "hayes.groups_tried": (tried, "count"),
        "hayes.groups_built": (built, "count"),
        "hayes.group_accept_frac": (_ratio(built, tried), "ratio"),
        "hayes.characters": (chars, "count"),
        "hayes.build_group_s": (g("span_s:hayes.build_group"), "s"),
        "hayes.class_weights_s": (g("span_s:hayes.class_weights"), "s"),
        "hayes.class_weights_calls": (g("calls:hayes.class_weights"), "count"),
        "hayes.lpoly_s": (g("self_s:hayes.lpoly"), "s"),
        "hayes.lpoly_calls": (g("calls:hayes.lpoly"), "count"),
        "hayes.rh_s": (g("self_s:hayes.rh"), "s"),
        "hayes.euler_s": (g("self_s:hayes.euler"), "s"),
        "hayes.logderiv_s": (g("self_s:hayes.logderiv"), "s"),
        "hayes.principal_s": (g("span_s:hayes.principal"), "s"),
        "hayes.us_per_char": (1e6 * _ratio(wall, chars), "us"),
        "cli.self_s": (g("self_s:cli.main"), "s"),
        "cli.out_bytes": (g("cli.out_bytes"), "bytes"),
        "cache.bytes": (g("cache.bytes"), "bytes"),
        "cache.entries": (g("cache.entries"), "count"),
        "trace.spans": (sum(v for k, v in raw.items() if k.startswith("calls:")), "count"),
    }
    for ph, key in (("LinearPhase", "linear"), ("HankelPhase", "hankel"),
                    ("QuadraticPhase", "quad")):
        m[f"kernel.{key}_ns_per_item"] = (
            1e9 * _ratio(g(f"kernel.s:{ph}"), g(f"kernel.items:{ph}")), "ns")
    for layer in LAYERS:
        m[f"layer.{layer}.self_frac"] = (_ratio(g(f"layer_self_s:{layer}"), wall), "ratio")
    return m


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, digests=None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.jobs = workloads.jobs(workload, seed)
        # each job's digest: taken from the first pass, or given
        self.digests: dict = dict(digests or {})
        self.source = "reference.json" if digests else "the first pass"
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        # ffmobius does no BLAS work.  OpenBLAS's idle thread pool, started
        # by `import numpy`, costs each process 60-80 ms of spinning at start
        # and CPU time while it runs, by amounts that follow how busy the
        # host keeps the second core; one OpenBLAS thread takes that out.
        self.env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")

    def _child(self, jobs, passdir: Path, traced: bool, spans_path, proc: int,
               oracle: bool) -> dict:
        spec_path, result_path = passdir / f"spec{proc}.json", passdir / f"result{proc}.json"
        spec = {"src": str(SRC), "jobs": jobs, "trace": traced, "proc": proc, "oracle": oracle,
                "check_seed": self.seed * 1000 + proc,
                "spans_path": str(spans_path) if spans_path else None}
        spec_path.write_text(json.dumps(spec))
        try:
            proc_ = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                cwd=passdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return {"crash": f"child killed after {CHILD_TIMEOUT} s"}
        if proc_.returncode != 0 or not result_path.exists():
            return {"crash": f"child exit {proc_.returncode}: {proc_.stderr[-2000:]}"}
        return json.loads(result_path.read_text())

    def run_pass(self, k: int, traced: bool = False, spans_path=None, overrides=None) -> dict:
        """Run the job list once in fresh processes; return the pass record.

        The oracle checks run in a Runner's first pass (k == 0) only:
        later passes must reproduce its digests, which is the same check."""
        jobs = [dict(job, **(overrides or {})) for job in self.jobs]
        groups: dict = {}
        for job in jobs:
            groups.setdefault(job["proc"], []).append(job)
        passdir = self.work / f"pass{k}"
        passdir.mkdir(parents=True)
        rec = {"setup_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "raw": {},
               "step_wall": {}, "step_cpu": {}}
        try:
            for proc, group in groups.items():
                doc = self._child(group, passdir, traced, spans_path, proc, k == 0)
                self.attempted += len(group)
                if "crash" in doc:
                    self._fail(len(group), f"pass {k}: {doc['crash']}")
                    continue
                rec["setup_s"] += doc["setup_s"]
                rec["wall_s"] += doc["wall_s"]
                rec["cpu_s"] += doc["cpu_s"]
                rec["rss_mb"] = max(rec["rss_mb"], doc["maxrss_kb"] / 1024)
                for key, val in doc.get("raw", {}).items():
                    rec["raw"][key] = rec["raw"].get(key, 0.0) + val
                if doc["oracle_error"]:
                    self._fail(len(group), f"pass {k}: oracle: {doc['oracle_error']}")
                    continue
                for res in doc["jobs"]:
                    for i, (wall, cpu) in enumerate(res["laps"]):
                        rec["step_wall"][f"{res['id']}/{i}"] = wall
                        rec["step_cpu"][f"{res['id']}/{i}"] = cpu
                    if not res["ok"]:
                        self._fail(1, f"pass {k} job {res['id']}: {res['error']}")
                    elif self.digests.setdefault(res["id"], res["digest"]) != res["digest"]:
                        self._fail(1, f"pass {k} job {res['id']}: result differs from {self.source}")
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
        return rec

    def _fail(self, n: int, msg: str):
        self.failed += n
        self.errors.append(msg)

    def digest(self) -> str:
        text = json.dumps(sorted(self.digests.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_reference(runner: Runner, overrides=None) -> None:
    """Run REFERENCE_SEED once, untimed, against its committed digests.

    Digests of the run's own seed are only compared between its passes; this
    pass holds the results to the ones the seed commit computed."""
    want = json.loads(REFERENCE.read_text()).get(runner.workload, {})
    ref = Runner(runner.workload, REFERENCE_SEED, runner.work / "reference", want)
    ref.run_pass(0, overrides=overrides)
    missing = sorted(set(ref.digests) - set(want))
    if missing:
        ref._fail(len(missing), f"no reference digests for {missing}; computed: "
                  + json.dumps({job: ref.digests[job] for job in missing}))
    runner.attempted += ref.attempted
    runner.failed += ref.failed
    runner.errors += [f"reference seed {REFERENCE_SEED}: {e}" for e in ref.errors]


def sum_of_step_minima(passes, key: str) -> float:
    """Sum over the jobs' steps of each step's fastest time in the run.

    A step is a whole job, or one library call of a sweep or Hayes job.  Other
    tenants of a shared host only ever slow a step down, in episodes that
    can last a whole run; the shorter the step, the likelier some pass ran
    it at full speed, so the sum is much steadier from run to run than a
    median (see README.md)."""
    ids = {step for p in passes for step in p[key]}
    return sum(min(p[key][step] for p in passes if step in p[key]) for step in ids)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ffmobius" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work)
    spans_path = None
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        spans_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        spans_path.unlink(missing_ok=True)
    passes = []
    try:
        # results must not depend on the worker count: the reference pass
        # runs one worker, against digests taken with the jobs' own count
        single = {"workers": 1} if any("workers" in job for job in runner.jobs) else None
        check_reference(runner, single)
        t0 = perf_counter()
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 0
            rec = runner.run_pass(k, traced, spans_path if k == 0 else None)
            rec["traced"] = traced
            passes.append(rec)
            k += 1
            if perf_counter() - t0 >= args.seconds and k >= 1 + args.trace:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(plain)} untraced), {len(runner.jobs)} jobs per pass, digest {runner.digest()}")
    correct = runner.failed == 0
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [derive(p["raw"]) for p in traced]
        metrics = {}
        for name, (_, unit) in per_pass[0].items():
            values = [pp[name][0] for pp in per_pass]
            if name in COUNTS and len(set(values)) > 1:
                correct = False
                runner.errors.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = (statistics.median([p["wall_s"] for p in traced])
                    / statistics.median([p["wall_s"] for p in plain]) - 1)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        top = sorted(LAYERS, key=lambda L: -metrics[f"layer.{L}.self_frac"]["value"])
        print("top layers by self time: " + ", ".join(
            f"{L} {100 * metrics[f'layer.{L}.self_frac']['value']:.1f}%" for L in top[:4]))
        print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": sum_of_step_minima(plain, "step_wall"), "unit": "s"},
            "setup_s": {"value": statistics.median([p["setup_s"] for p in plain]), "unit": "s"},
            "cpu_s": {"value": sum_of_step_minima(plain, "step_cpu"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([p["rss_mb"] for p in plain]), "unit": "MB"},
        }
    fail_frac = runner.failed / max(runner.attempted, 1)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':32s} {fail_frac:14.6g} ratio  "
          f"({runner.failed} of {runner.attempted} jobs)")
    for err in runner.errors[:10]:
        print(err, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
