"""The case118 DC panel: solver counters and answers next to HiGHS.

Prints one line per panel run: the DC repair-ordering pipeline at K=2 and
K=3 and the MRSP-first pipeline at K=2, each on the area-1 ``gen-damage``
scenarios of seeds 42-45 at a 1% gap, then acceptance criterion 9 (the
ordering pipeline at K=10, seed 42).  Each line gives the simplex
iterations, the root node's iterations (``-`` where the checkout does not
count them), the B&B nodes, the crash columns, the solve seconds
(``SolveStats.wall_s``) and the factorization seconds (``factor_s``),
summed over the run's solves; then the objective and gap of its last
solve (the ordering model) with that model's HiGHS optimum
(``tests/oracles.highs_milp``), and the plan's true ENS from the AC
validator.  A move of true ENS between two checkouts can so be read
together with its HiGHS check.

grs is imported from the checkout given by ``--root`` (default: the one
holding this script), so the same script can be run against another
checkout to compare the two; HiGHS always runs on this checkout's oracle.
It writes nothing into the checkout: the damage files go to a temporary
folder.

Usage: python3 scripts/case118_panel.py [--root CHECKOUT]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent.parent
AREA1 = "1-23,25-32,113-115,117"
RUNS = ([("rop", 2, s) for s in (42, 43, 44, 45)]
        + [("rop", 3, s) for s in (42, 43, 44, 45)]
        + [("mrsp-first", 2, s) for s in (42, 43, 44, 45)]
        + [("rop", 10, 42)])  # criterion 9
HEADER = (f"{'run':<19} {'iters':>6} {'root':>6} {'nodes':>5} {'crash':>5} "
          f"{'solve_s':>7} {'factor_s':>8} "
          f"{'objective':>10} {'gap':>7} {'highs':>10} {'true_ens':>9}")


def run_line(root: Path, pipeline: str, periods: int, seed: int) -> str:
    """One panel line; grs must already import from ``root``."""
    from grs import cli, netio, workflows
    from grs.mip import SolveLimits

    from tests.oracles import highs_milp

    case = root / "cases" / "case118_smoke.m"
    solves = []
    real = workflows.solve_mip

    def recorded(model, limits=None):
        solves.append((model, real(model, limits)))
        return solves[-1][1]

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "damage.json"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["gen-damage", "--case", str(case), "--fraction",
                           "0.35", "--area", AREA1, "--seed", str(seed),
                           "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"gen-damage seed {seed} exited {rc}")
        dmg = netio.damage_from_dict(json.loads(out.read_text()))
    run = (workflows.run_mrsp_then_rop if pipeline == "mrsp-first"
           else workflows.run_rop_then_redispatch)
    workflows.solve_mip = recorded
    try:
        result = run(netio.load_case(case), dmg, periods,
                     limits=SolveLimits(gap=0.01))
    finally:
        workflows.solve_mip = real
    stats = [sol.stats for _, sol in solves]
    root_iters = [getattr(st, "root_iters", None) for st in stats]
    model, sol = solves[-1]
    return (f"{pipeline + f' K={periods} s{seed}':<19} "
            f"{sum(st.lp_iters for st in stats):>6} "
            f"{'-' if None in root_iters else sum(root_iters):>6} "
            f"{sum(st.nodes for st in stats):>5} "
            f"{sum(st.crash_cols for st in stats):>5} "
            f"{sum(st.wall_s for st in stats):>7.2f} "
            f"{sum(st.factor_s for st in stats):>8.3f} "
            f"{sol.objective:>10.3f} {sol.gap:>7.2%} "
            f"{highs_milp(model):>10.3f} {result.true_ens_mwh:>9.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "grs").is_dir():
        print(f"case118_panel: {root} is not a checkout with src/grs",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]  # grs, then tests.oracles
    print(HEADER, flush=True)
    for pipeline, periods, seed in RUNS:
        print(run_line(root, pipeline, periods, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
