"""Digests of the benchmark's outputs and of drawn AC validations.

Prints one line ``<workload> <op> <digest>`` per benchmark operation: the
first 16 hex digits of the SHA-256 of ``op.digest(output)``, with the
operations built by ``perfbench/workloads.py`` at ``--seed``.  Then one line
``validator <n> schedules <digest>``: a hash over ``plan_dispatches`` on n
status schedules drawn from the seed on case118_smoke, case5_restoration and
case10_radial in turn.  Each result is hashed in a canonical form: dicts by
sorted items, floats by ``repr`` of the Python float, numpy arrays element
by element, dataclasses field by field, and an exception by its type and
message.

grs and the benchmark are imported from the checkout given by ``--root``
(default: the one holding this script), so the same script can be run
against another checkout to compare the two.  ``--compare OTHER`` does
that: it runs this script once for ``--root`` and once for OTHER, each in
its own process (both import a ``grs``), prints every line once, marked
``same`` or ``DIFFERENT`` (with both digests), and exits 1 if any line
differs.  It writes nothing into the checkout: the damage files the
workloads generate go to a temporary folder.

Usage: python3 scripts/op_digests.py [--root CHECKOUT] [--seed 1]
                                     [--compare OTHER]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

CASES = ("case118_smoke.m", "case5_restoration.m", "case10_radial.m")
SCHEDULES = 54  # drawn status schedules, cycling through CASES
MAX_DAMAGED = 15  # components damaged by one drawn schedule, at most
MAX_PERIODS = 5


def short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(x):
    """x as nested lists of strings, the same for bit-identical values."""
    import numpy as np

    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [canonical(getattr(x, f.name))
                                     for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(x.items())]
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return repr(bool(x))
    if isinstance(x, (int, np.integer)):
        return repr(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return repr(complex(x))
    if x is None or isinstance(x, str):
        return repr(x)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def draw_schedule(rng: random.Random, net):
    """A status schedule: up to MAX_DAMAGED live buses, branches and
    generators, each off until a drawn period (possibly never)."""
    from grs.grid import BRANCH, BUS, GEN

    live = net.live()
    items = ([(BUS, b) for b in live.buses]
             + [(BRANCH, k) for k in live.branches]
             + [(GEN, g) for g in live.gens])
    periods = rng.randint(1, MAX_PERIODS)
    damaged = rng.sample(items, rng.randint(1, min(MAX_DAMAGED, len(items))))
    status = {}
    for item in damaged:
        on = rng.randint(1, periods + 1)
        status[item] = [0] * on + [1] * (periods + 1 - on)
    return status, periods


def validator_digest(root: Path, seed: int) -> str:
    from grs import netio
    from grs.acvalidate import plan_dispatches

    nets = [netio.load_case(root / "cases" / name) for name in CASES]
    rng = random.Random(seed)
    out = []
    for k in range(SCHEDULES):
        net = nets[k % len(nets)]
        status, periods = draw_schedule(rng, net)
        try:
            out.append(canonical(plan_dispatches(net, status, periods)))
        except Exception as exc:  # the same failure on both sides matches
            out.append([type(exc).__name__, str(exc)])
    return short(repr(out))


def compare(ours: list[str], theirs: list[str]) -> tuple[list[str], int]:
    """Each line of two outputs of this script, once, marked ``same`` or
    ``DIFFERENT``; a line is its fields but the digest, and a line only one
    side printed differs.  Returns the marked lines and the exit code."""
    mine = dict(line.rsplit(" ", 1) for line in ours)
    other = dict(line.rsplit(" ", 1) for line in theirs)
    out = []
    for key in dict.fromkeys([*mine, *other]):
        a, b = mine.get(key, "-"), other.get(key, "-")
        out.append(f"same      {key} {a}" if a == b
                   else f"DIFFERENT {key} {a} {b}")
    return out, int(any(line.startswith("DIFFERENT") for line in out))


def _digest_lines(root: Path, seed: int) -> list[str] | None:
    """This script's lines for the checkout root, from a process of its
    own; None if that failed (its errors went to stderr)."""
    p = subprocess.run([sys.executable, __file__, "--root", str(root),
                        "--seed", str(seed)], stdout=subprocess.PIPE,
                       text=True)
    return p.stdout.splitlines() if p.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compare", type=Path, metavar="OTHER",
                    help="compare with the checkout OTHER, line by line")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    other = args.compare.resolve() if args.compare else None
    for checkout in filter(None, (root, other)):
        if not ((checkout / "src" / "grs").is_dir()
                and (checkout / "perfbench").is_dir()):
            print(f"op_digests: {checkout} is not a checkout with src/grs "
                  "and perfbench/", file=sys.stderr)
            return 2
    if other is not None:
        ours, theirs = (_digest_lines(r, args.seed) for r in (root, other))
        if ours is None or theirs is None:
            return 2
        lines, rc = compare(ours, theirs)
        print("\n".join(lines))
        return rc
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workloads.OUT = Path(tmp)
        for name in workloads.WORKLOADS:
            for op in workloads.setup(name, args.seed):
                print(name, op.name, short(op.digest(op.run())), flush=True)
    print("validator", SCHEDULES, "schedules",
          validator_digest(root, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
