"""Survey ordering margins over randomized certified models.

For each (n, seed) pair this draws an affine model whose hypotheses hold by
construction, certifies it numerically, and records the worst margin of each
ordering check.  Margins should be nonnegative up to roundoff; the survey is
a quick way to look for regressions at sizes the unit tests do not sweep.

Usage:
    python3 scripts/margin_survey.py --n 2 3 4 --seeds 20 --steps 12
"""

import csv
import sys

from occupancy import exact, order, zoo
from occupancy.cli import EXIT_CAPACITY, _Parser
from occupancy.lattice import CapacityError
from occupancy.model import check_assumptions


def survey_row(n: int, seed: int, steps: int, m: int):
    spec = zoo.random_certified_model(n, seed=seed)
    report = check_assumptions(spec, seed=seed)
    certified = report.ordering_certified
    x0 = seed % (1 << n)
    # one propagation and one kernel serve every check of the model
    rows, law = exact.law_trajectory(spec, x0, steps)
    kernel = exact.kernel(spec)
    marginal = order.marginal_bound(spec, x0, rows, certified=certified)
    joint = order.single_time_orthant(spec, x0, steps, kernel, certified=certified)
    paths = order.path_orthant(spec, x0, m, kernel, certified=certified)
    assoc = order.positive_correlations(law, certified=certified)
    return {
        "n": n,
        "seed": seed,
        "x0": x0,
        "certified": certified,
        "marginal_bound": marginal.worst_margin,
        "single_time_orthant": joint.worst_margin,
        "path_orthant": paths.worst_margin,
        "positive_correlations": assoc.worst_margin,
    }


def main(argv=None) -> int:
    # malformed flags exit 1, as the CLI's do, and a run over the byte or
    # work budget exits 4; exit 2 is a failed check
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds 0..seeds-1 per size")
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument("--m", type=int, default=4,
                        help="path length for the pattern scan")
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)
    if min(args.n) < 1 or args.seeds < 1 or args.steps < 0 or args.m < 1:
        parser.error("--n, --seeds and --m must be >= 1, and --steps >= 0")

    try:
        rows = [survey_row(n, seed, args.steps, args.m)
                for n in args.n for seed in range(args.seeds)]
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    handle = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            handle.close()

    worst = min(min(r["marginal_bound"], r["single_time_orthant"],
                    r["path_orthant"], r["positive_correlations"])
                for r in rows)
    print(f"# {len(rows)} models, worst margin {worst:+.3e}", file=sys.stderr)
    return 0 if worst >= -1e-10 else 2


if __name__ == "__main__":
    sys.exit(main())
