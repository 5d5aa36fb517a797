"""The case5 SOC panel: repair ordering under the cone relaxation.

Prints one line per panel instance, each the SOC repair-ordering pipeline
(``workflows.run_rop_then_redispatch`` with ``"soc"``) on
``cases/case5_restoration.m``: every component damaged at K=2 to 6, branches
1-6 plus generator 5 at K=2 and K=3, and branches 1-4 and branches 1-3 at
K=3.  Each line gives the solve's status, simplex iterations, B&B nodes,
cone cuts, the root node's iterations and bound (in the model's units,
per unit of base MVA and period), the solve seconds (``SolveStats.wall_s``),
the objective (MWh served), and the plan's estimated and true ENS (MWh).
A solve stopped at a limit prints its status and ``-`` for the answers it
did not reach.

grs is imported from the checkout given by ``--root`` (default: the one
holding this script), so the same script can be run against another
checkout to compare the two.  It writes nothing.

Usage: python3 scripts/soc_panel.py [--root CHECKOUT] [--time-limit S]
                                    [--only NAME]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent.parent
ALL = {"branches": [1, 2, 3, 4, 5, 6], "gens": [1, 2, 3, 4, 5]}
B16G5 = {"branches": [1, 2, 3, 4, 5, 6], "gens": [5]}
# (name, damage, periods)
RUNS = ([(f"all-K{k}", ALL, k) for k in (2, 3, 4, 5, 6)]
        + [(f"b1-6g5-K{k}", B16G5, k) for k in (2, 3)]
        + [("b1-4-K3", {"branches": [1, 2, 3, 4]}, 3),
           ("b1-3-K3", {"branches": [1, 2, 3]}, 3)])
HEADER = (f"{'run':<11} {'status':<10} {'iters':>6} {'nodes':>5} "
          f"{'cuts':>5} {'root':>5} {'root_bound':>11} {'solve_s':>7} "
          f"{'objective':>11} {'est_ens':>9} {'true_ens':>9}")


def run_line(root: Path, name: str, time_limit: float | None = None) -> str:
    """One panel line; grs must already import from ``root``."""
    from grs import netio, workflows
    from grs.grid import DamageScenario
    from grs.mip import SolveLimits

    damage, periods = next((d, k) for n, d, k in RUNS if n == name)
    net = netio.load_case(root / "cases" / "case5_restoration.m")
    solves = []
    real = workflows.solve_mip

    def recorded(model, limits=None):
        solves.append(real(model, limits))
        return solves[-1]

    workflows.solve_mip = recorded
    try:
        result = workflows.run_rop_then_redispatch(
            net, DamageScenario.of(**damage), periods, "soc",
            limits=SolveLimits(time_s=time_limit))
        answers = (f"{result.plan.objective_value:.6f}",
                   f"{result.estimated_ens_mwh:.3f}",
                   f"{result.true_ens_mwh:.3f}")
    except workflows.SolverLimit:
        answers = ("-", "-", "-")
    finally:
        workflows.solve_mip = real
    sol = solves[-1]
    st = sol.stats
    return (f"{name:<11} {sol.status:<10} {st.lp_iters:>6} {st.nodes:>5} "
            f"{st.cuts:>5} {st.root_iters:>5} {st.root_bound:>11.6f} "
            f"{st.wall_s:>7.2f} {answers[0]:>11} {answers[1]:>9} "
            f"{answers[2]:>9}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE)
    ap.add_argument("--time-limit", type=float, default=None,
                    help="seconds per solve (default: none)")
    ap.add_argument("--only", choices=[n for n, _, _ in RUNS],
                    help="run this one instance")
    args = ap.parse_args(argv)
    if args.time_limit is not None and not args.time_limit > 0.0:
        print(f"soc_panel: --time-limit {args.time_limit} is not > 0",
              file=sys.stderr)
        return 2
    root = args.root.resolve()
    if not (root / "src" / "grs").is_dir():
        print(f"soc_panel: {root} is not a checkout with src/grs",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src")]
    print(HEADER, flush=True)
    for name, _, _ in RUNS:
        if args.only in (None, name):
            print(run_line(root, name, args.time_limit), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
