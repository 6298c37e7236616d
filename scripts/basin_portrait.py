#!/usr/bin/env python3
"""Basin portrait of the bistable sigmoid/Erlang system.

Solves the renewal equation from tail sources xi^{ell0} for a fan of starting
levels and renders the trajectories: everything starting below the unstable
point converges to the lower stable fixed point, everything above to the upper
one.  Writes basin_portrait.svg and one CSV per trajectory.
"""

import argparse
from pathlib import Path

import renewal_lab as rl
from renewal_lab.acceptance import bistable_fixture
from renewal_lab.lab import render_svg

#: the tail window the limit diagnostic reads; a run must be longer
WINDOW = 10.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/basins", help="output directory")
    ap.add_argument("--t-end", type=float, default=80.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    args = ap.parse_args()
    if args.t_end <= WINDOW:
        ap.error(f"--t-end must exceed the limit window {WINDOW:g}, got {args.t_end:g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    phi, h, reports = bistable_fixture()
    print("fixed points:", [f"{r.ell:.6f} ({r.stability.kind}, tau0={r.tau0:.3f})" for r in reports])

    cfg = rl.SolverConfig(t_end=args.t_end, dt=args.dt)
    series = []
    for ell0 in (0.2, 0.5, 0.8, 0.95, 1.05, 1.2, 1.5, 2.0):
        traj = rl.solve_nre(phi, h, rl.make_source_tail(h, ell0), cfg)
        diag = rl.limit_diagnostic(traj, reports, window=WINDOW)
        limit = diag.kind if diag.ell is None else f"{diag.ell:.6f} (residual {diag.residual:.2e})"
        print(f"ell0 = {ell0:4}: -> {limit}")
        traj.to_csv(out / f"basin_ell0_{ell0:g}.csv")
        color = "#c0392b" if ell0 < 1.0 else "#2471a3"
        series.append({"xs": traj.ts, "ys": traj.lam, "color": color, "label": f"ell0={ell0:g}"})
    render_svg(series, out / "basin_portrait.svg", title="basins of the bistable renewal equation", ylabel="lambda")
    print(f"wrote {out / 'basin_portrait.svg'}")


if __name__ == "__main__":
    main()
