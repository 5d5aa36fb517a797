"""Spread of one pipeline's search over the simplex refactor period.

A change of any pivot, even one that provably keeps every answer, can move
a B&B search to another path, and the node and iteration counts of one
refactor period are one draw among many.  This script runs one pipeline
at several values of ``grs.mip.simplex.REFACTOR_EVERY`` (set in this
process, nothing is written) and prints, per period, the B&B nodes and
simplex iterations summed over the pipeline's solves and the plan's true
ENS (MWh), then their min, median and max.  Run it on both sides of a
change that moves pivot paths before claiming a gain: a gain at the
default period that the spread does not show is a lucky draw.

The pipeline is one benchmark operation (``--op WORKLOAD:OP``, built by
``perfbench/workloads.py``, e.g. ``case5-dc-k5:plain``) or one instance of
``scripts/soc_panel.py`` (``--soc NAME``, e.g. ``all-K3``).  grs is
imported from the checkout given by ``--root`` (default: the one holding
this script).  The damage files a workload generates go to a temporary
folder.

Usage: python3 scripts/path_spread.py (--op WORKLOAD:OP | --soc NAME)
                                      [--root CHECKOUT]
                                      [--refactor 30,40,45,...]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent.parent
REFACTOR = (30, 40, 45, 48, 50, 52, 55, 60, 70)
HEADER = f"{'refactor':<8} {'nodes':>6} {'iters':>8} {'true_ens':>10}"


def measure(run, refactors) -> list[tuple[int, int, int, float]]:
    """(refactor period, nodes, iterations, true ENS) of ``run()`` at each
    period; ``run`` returns the true ENS of one pipeline."""
    import grs.mip.simplex
    from grs import workflows

    solves = []
    real_solve = workflows.solve_mip
    real_every = grs.mip.simplex.REFACTOR_EVERY

    def recorded(model, limits=None):
        solves.append(real_solve(model, limits))
        return solves[-1]

    rows = []
    workflows.solve_mip = recorded
    try:
        for every in refactors:
            grs.mip.simplex.REFACTOR_EVERY = every
            solves.clear()
            true_ens = run()
            rows.append((every, sum(s.stats.nodes for s in solves),
                         sum(s.stats.lp_iters for s in solves), true_ens))
    finally:
        workflows.solve_mip = real_solve
        grs.mip.simplex.REFACTOR_EVERY = real_every
    return rows


def lines(rows) -> list[str]:
    """The table: one line per period, then min, median and max."""
    out = [HEADER] + [f"{every:<8} {nodes:>6} {iters:>8} {ens:>10.3f}"
                      for every, nodes, iters, ens in rows]
    for name, f in (("min", min), ("median", statistics.median),
                    ("max", max)):
        nodes, iters, ens = (f(r[k] for r in rows) for k in (1, 2, 3))
        out.append(f"{name:<8} {nodes:>6.10g} {iters:>8.10g} {ens:>10.3f}")
    return out


def pipeline(net, dmg, periods: int, formulation: str):
    """A ``run`` for ``measure``: the repair-ordering pipeline, solved to
    optimality."""
    from grs import workflows

    return lambda: workflows.run_rop_then_redispatch(
        net, dmg, periods, formulation).true_ens_mwh


def soc_instance(root: Path, name: str):
    """A ``run`` for ``measure``: the ``soc_panel.py`` instance ``name``."""
    from grs import netio
    from grs.grid import DamageScenario

    sys.path.insert(0, str(HERE / "scripts"))
    import soc_panel

    damage, periods = next((d, k) for n, d, k in soc_panel.RUNS if n == name)
    net = netio.load_case(root / "cases" / "case5_restoration.m")
    return pipeline(net, DamageScenario.of(**damage), periods, "soc")


def benchmark_op(root: Path, spec: str, out: Path):
    """A ``run`` for ``measure``: the benchmark operation ``WORKLOAD:OP``,
    its damage files written to ``out``."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    workloads.OUT = out
    name, _, op_name = spec.partition(":")
    op = next(op for op in workloads.setup(name, 1) if op.name == op_name)
    return lambda: op.true_ens(op.run())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE)
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--op", metavar="WORKLOAD:OP",
                       help="a benchmark operation, e.g. case5-dc-k5:plain")
    which.add_argument("--soc", metavar="NAME",
                       help="a soc_panel.py instance, e.g. all-K3")
    ap.add_argument("--refactor", default=",".join(map(str, REFACTOR)),
                    help="comma-separated refactor periods "
                         "(default %(default)s)")
    args = ap.parse_args(argv)
    try:
        refactors = [int(p) for p in args.refactor.split(",")]
    except ValueError:
        refactors = []
    if not refactors or min(refactors) < 1:
        print(f"path_spread: --refactor {args.refactor} is not a list of "
              "periods >= 1", file=sys.stderr)
        return 2
    root = args.root.resolve()
    if not ((root / "src" / "grs").is_dir()
            and (root / "perfbench").is_dir()):
        print(f"path_spread: {root} is not a checkout with src/grs and "
              "perfbench/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src")]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run = (soc_instance(root, args.soc) if args.soc
                   else benchmark_op(root, args.op, Path(tmp)))
        except (KeyError, StopIteration):
            print(f"path_spread: no such instance {args.soc or args.op}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines(measure(run, refactors))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
