"""Print the seeds that fail criterion 9's sampled-anchor clause.

    PYTHONPATH=src python3 tests/anchor_seeds.py [--seeds 60]

The clause (`test_criterion_09_potential_scan_morphology`) asserts the
minima counts [1, >=2, >=2] for seeds 0-4 only.  This script runs it, with
the test's own model and run config through the same helper, over seeds
0 to N-1 and prints the seeds that fail, then how many passed.  A change to
the sampler bytes runs it on both checkouts and compares the two outputs.
This is a script, not a collected test.
"""

from __future__ import annotations

import argparse

from test_acceptance import _criterion_09_model, _sampled_anchor_counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=60,
                        help="run seeds 0 to SEEDS-1 (default 60)")
    n = parser.parse_args().seeds
    model = _criterion_09_model()
    failing = [seed for seed in range(n)
               if not _sampled_anchor_counts(model, seed)[1]]
    print("failing seeds:", ", ".join(map(str, failing)))
    print(f"passed {n - len(failing)} of {n}")


if __name__ == "__main__":
    main()
