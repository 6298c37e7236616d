#!/usr/bin/env python3
"""Order sensitivity of Erlang-polynomial sources.

Both runs start at level 1.4 above the unstable point of the bistable
sigmoid/Erlang(2, 3) system.  The full-order source (coefficients 1.4, 1.4, 1.4)
converges upward; truncating the highest coefficient turns it into the tail
source of the order-1 kernel, whose trajectory crosses the unstable point and
falls to the lower stable root instead.
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
    ap.add_argument("--out", default="out/crossing")
    ap.add_argument("--t-end", type=float, default=80.0)
    args = ap.parse_args()
    if args.t_end <= WINDOW:
        ap.error(f"--t-end must exceed the limit window {WINDOW:g}, got {args.t_end:g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    phi, h, reports = bistable_fixture()
    cfg = rl.SolverConfig(t_end=args.t_end, dt=1e-3)

    series = []
    for c, color, name in (
        ((1.4, 1.4, 1.4), "#c0392b", "full order (L=2)"),
        ((1.4, 1.4, 0.0), "#2471a3", "lower order (L=1)"),
    ):
        xi = rl.make_source_erlang_polynomial(2, 3.0, c)
        traj = rl.solve_nre(phi, h, xi, cfg)
        diag = rl.limit_diagnostic(traj, reports, window=WINDOW)
        print(f"{name}: -> {diag.kind if diag.ell is None else f'{diag.ell:.6f}'}")
        traj.to_csv(out / f"crossing_{name.split()[0]}.csv")
        series.append({"xs": traj.ts, "ys": traj.lam, "color": color, "label": name})
    render_svg(series, out / "crossing_portrait.svg", title="crossing the unstable point", ylabel="lambda")
    print(f"wrote {out / 'crossing_portrait.svg'}")


if __name__ == "__main__":
    main()
