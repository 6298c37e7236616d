#!/usr/bin/env python3
"""Pathwise distance between the particle system and its coupled Poisson limit.

For the linear fixture (mu = 1, h = 0.5 e^{-t}) the mean of
sup_{s <= t} |Z^i_s - Zbar^i_s| is bounded by C t / sqrt(N) with C = 1;
this script estimates the mean across system sizes and fits the scaling
exponent (expected -1/2).
"""

import argparse

import renewal_lab as rl
from renewal_lab.acceptance import affine_fixture


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 400, 1600])
    ap.add_argument("--replicas", type=int, default=100)
    ap.add_argument("--t-end", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--threads", type=int, default=None)
    args = ap.parse_args()
    if len(set(args.sizes)) < 2 or min(args.sizes) < 1:
        ap.error(f"--sizes: the log-log slope needs at least two distinct sizes >= 1, got {args.sizes}")

    phi, h, _ = affine_fixture()
    xi = rl.make_source_empty()
    try:
        cfg = rl.HawkesConfig(n_particles=args.sizes[0], t_end=args.t_end, seed=args.seed, replicas=args.replicas)
        res = rl.coupling_experiment(phi, h, xi, cfg, n_values=args.sizes, threads=args.threads)
    except ValueError as exc:
        ap.error(str(exc))

    print(f"coupling constant C = {res.c_tilde:.6f}, horizon t = {args.t_end}")
    print(f"{'N':>6}  {'mean sup diff':>14}  {'bound C t/sqrt(N)':>18}")
    for n, m, b in zip(res.n_values, res.mean_sup_diff, res.bound_values):
        print(f"{n:6d}  {m:14.4f}  {b:18.4f}")
    print(f"log-log slope across N: {res.slope:.4f} (theory: -0.5)")


if __name__ == "__main__":
    main()
