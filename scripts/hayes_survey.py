#!/usr/bin/env python3
"""Survey every character group G_(l,Q) in a small family: L-polynomial
coefficients, root moduli, and the empirical decay of the Mobius-twisted
character sums.  Writes three CSVs into results/.

Usage: python scripts/hayes_survey.py [--field 3] [--lmax 2] [--qdegmax 3]
"""

import argparse
import csv
import pathlib

from ffmobius import Poly, build_group, char_sum_exponent_report, l_polynomial, parse_field, rh_check
from ffmobius.errors import BudgetExceeded


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--field", default="3")
    ap.add_argument("--lmax", type=int, default=2)
    ap.add_argument("--qdegmax", type=int, default=3)
    ap.add_argument("--dmax", type=int, default=8)
    ap.add_argument("--order-budget", type=int, default=1000)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    ctx = parse_field(args.field)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(exist_ok=True)

    groups = []
    for l in range(args.lmax + 1):
        for m in range(args.qdegmax + 1):
            for j in range(ctx.q**m):
                Q = Poly.from_code(ctx, ctx.q**m + j)
                try:
                    groups.append(build_group(ctx, l, Q, budget=args.order_budget))
                except BudgetExceeded:  # group order above --order-budget
                    continue

    coeff_rows, root_rows = [], []
    for g in groups:
        desc = g.describe()
        for char in g.characters():
            if char.is_principal:
                continue
            lp = l_polynomial(char, g.l + g.m + 2)
            for n, c in enumerate(lp.coeffs):
                coeff_rows.append((desc, char.char_id, n, f"{c.real:.12g}", f"{c.imag:.12g}"))
            for root, modulus, label in rh_check(char):
                root_rows.append(
                    (desc, char.char_id, f"{root.real:.12g}", f"{root.imag:.12g}", f"{modulus:.12g}", label)
                )
    write_csv(outdir / f"hayes-coeffs-q{ctx.q}.csv",
              ["group", "lambda_id", "n", "re_cn", "im_cn"], coeff_rows)
    write_csv(outdir / f"hayes-roots-q{ctx.q}.csv",
              ["group", "lambda_id", "root_re", "root_im", "modulus", "class"], root_rows)

    sum_rows = [
        (desc, cid, d, f"{s:.12g}", "" if expo is None else f"{expo:.6f}")
        for desc, cid, d, s, expo in char_sum_exponent_report(groups, args.dmax)
    ]
    write_csv(outdir / f"hayes-charsums-q{ctx.q}.csv",
              ["group", "lambda_id", "d", "abs_sum", "empirical_exponent"], sum_rows)
    print(f"surveyed {len(groups)} groups; wrote 3 tables under {outdir}/")


if __name__ == "__main__":
    main()
