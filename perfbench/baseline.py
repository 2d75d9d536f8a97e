#!/usr/bin/env python3
"""Cross-check against the ROADMAP Baseline: MonicSieve build time per monic
code at q=2 D=16, q=3 D=12, q=2^2 D=10, and the wall time of a cold
`linear-corr --field 3 --n 13 --budget 2000000` process.

Usage: python3 perfbench/baseline.py

Each figure is the median of REPEATS fresh processes.  Prints one JSON
object.  Run from the repository root.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SIEVES = [("2", 16), ("3", 12), ("2^2", 10)]
REPEATS = 3

BUILD = """
import sys, time
sys.path.insert(0, {src!r})
from ffmobius import parse_field
from ffmobius.sieve import MonicSieve
ctx = parse_field({field!r})
t = time.perf_counter()
MonicSieve(ctx, {deg})
print(time.perf_counter() - t, ctx.q ** {deg})
"""


def sieve_build(field: str, deg: int) -> tuple:
    out = subprocess.run([sys.executable, "-c", BUILD.format(src=str(SRC), field=field, deg=deg)],
                         check=True, capture_output=True, text=True).stdout.split()
    return float(out[0]), int(out[1])


def cold_linear_corr() -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "ffmobius.cli", "linear-corr", "--field", "3",
                    "--n", "13", "--budget", "2000000", "--seed", "0"],
                   check=True, capture_output=True, env={"PYTHONPATH": str(SRC)})
    return time.perf_counter() - t


def main():
    if not (SRC / "ffmobius").is_dir():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    doc = {}
    for field, deg in SIEVES:
        runs = [sieve_build(field, deg) for _ in range(REPEATS)]
        build_s = statistics.median(r[0] for r in runs)
        doc[f"sieve q={field} D={deg}"] = {"build_s": round(build_s, 3),
                                            "us_per_code": round(1e6 * build_s / runs[0][1], 2)}
    doc["cold linear-corr q=3 n=13 wall_s"] = round(
        statistics.median(cold_linear_corr() for _ in range(REPEATS)), 3)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
