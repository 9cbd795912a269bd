"""Discretisation study for a contact ring.

Writes the convergence table (single-flip rate error, multi-flip mass, law
distance, Euler gap) over a dyadic delta grid, then the path-ordering margins
of the discretised chains at a set of real observation times.  The metrics
should shrink roughly linearly in delta; the margins should stay nonnegative.

Usage:
    python3 scripts/bridge_convergence.py --sites 3 --beta 0.35 --mu 1.0 --t 1.0
"""

import math
import sys

from occupancy import bridge, exact, indep, zoo
from occupancy.bridge import DiscretisationConfig
from occupancy.cli import EXIT_CAPACITY, _csv_text, _Parser
from occupancy.exact import MultiSitePattern
from occupancy.lattice import CapacityError


def demand_pattern(demands, delta: float) -> MultiSitePattern:
    """`demands`, (site, times) with real-valued times, as whole steps of delta.

    Each time must be an integer multiple of delta.
    """
    entries = []
    for site, times in demands:
        steps = []
        for tau in times:
            k = round(tau / delta)
            if abs(k * delta - tau) > 1e-9 * max(1.0, abs(tau)):
                raise ValueError(f"time {tau} is not a multiple of delta={delta}")
            steps.append(k)
        entries.append((site, tuple(steps)))
    return MultiSitePattern(entries=tuple(entries))


def ordering_margins(spec, x0: int, demands,
                     deltas=bridge.DEFAULT_DELTAS) -> list[tuple[float, float]]:
    """Vacancy-ordering margins of the discretised chains along a delta grid.

    `demands` are as `demand_pattern` reads them, for every delta in the
    grid.  Returns (delta, margin) pairs, margin being the chain's joint
    vacancy probability minus the independent surrogate's.
    """
    out = []
    for delta in deltas:
        chain = bridge.discretise(spec, DiscretisationConfig(delta))
        discrete = demand_pattern(demands, delta)
        kernel = exact.kernel(chain)
        schedules = indep.site_schedules(chain, x0, max(1, discrete.horizon))
        p_chain = exact.multisite_probability(chain, x0, discrete, kernel)
        p_indep = indep.multisite_probability(chain, x0, discrete, schedules)
        out.append((delta, p_chain - p_indep))
    return out


def main(argv=None) -> int:
    # malformed flags exit 1, as the CLI's do, and a run over the byte or
    # work budget exits 4; exit 2 is a failed check
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--beta", type=float, default=0.35)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--t", type=float, default=1.0)
    parser.add_argument("--x0", type=lambda s: int(s, 0), default=1)
    parser.add_argument("--deltas", type=float, nargs="+",
                        default=list(bridge.DEFAULT_DELTAS))
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)
    if not 0 <= args.t < math.inf or not all(0 < d < math.inf for d in args.deltas):
        parser.error("--t must be finite and >= 0, and --deltas positive and finite")
    try:
        spec = zoo.contact_ring(args.sites, beta=args.beta, mu=args.mu)
        # vacancy demands at half and full horizon on the first two sites
        demands = [(0, (args.t / 2, args.t)), (1 % spec.n, (args.t,))]
        bridge.check_delta(spec, max(args.deltas))
        for delta in args.deltas:
            demand_pattern(demands, delta)
        table = bridge.convergence_table(spec, args.x0, args.t, deltas=args.deltas)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        parser.error(str(exc))
    text = _csv_text(table.columns, table.rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    margins = ordering_margins(spec, args.x0, demands, deltas=args.deltas)
    for delta, margin in margins:
        print(f"# ordering margin at delta={delta:.6g}: {margin:+.3e}",
              file=sys.stderr)
    worst = min(m for _, m in margins)
    return 0 if worst >= -1e-10 else 2


if __name__ == "__main__":
    sys.exit(main())
