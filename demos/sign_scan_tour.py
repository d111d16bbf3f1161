"""
Sign behavior of the Liouville summatory functions
==================================================

P(x) = sum_{n<=x} lambda(n) stays nonpositive for a long while (it
first crosses zero above 9e8), and T(x) = sum_{n<=x} lambda(n)/n is
conjectured never to vanish. This script scans both on a modest range
and fits the growth exponent of |P| over its record peaks.

Run with --limit to push further; a checkpoint file makes long scans
resumable (ctrl-C and rerun with the same arguments).
"""

import argparse

from zetalab import growth_exponent_diagnostic, run_scan

parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
parser.add_argument("--limit", type=lambda t: int(float(t)), default=10**6)
parser.add_argument("--checkpoint", help="resume file for long runs")
args = parser.parse_args()

result = run_scan(args.limit, checkpoint_path=args.checkpoint)

print(f"scan up to {args.limit}:")
for label, rep in (("P(x) <= 0 on [2, x]", result.polya), ("T(x) > 0", result.turan)):
    status = "holds" if rep.first_violation is None else f"fails first at {rep.first_violation}"
    print(f"  {label}: {status}")
    print(f"    minimum {rep.min_value:.6g} at x = {rep.argmin}, "
          f"{rep.sign_change_count} sign changes")
print(f"  final P = {result.polya_final}, final T = {result.turan_final:.12f}")

# How fast do the record troughs of |P| deepen? A least-squares slope
# of log|P| against log x over running-maximum peaks lands close to 1/2
# on every range we can reach; nothing here distinguishes 1/2 + eps.
diag = growth_exponent_diagnostic(args.limit)
print(f"growth exponent of |P| over {diag.peak_count} record peaks: "
      f"{diag.exponent:.4f} +- {diag.stderr:.4f}")
for flag in diag.flags:
    print(f"  caveat: {flag}")
