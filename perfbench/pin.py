"""Check the ladder's pinned values against routes independent of the engines.

Run from the repository root:  python3 perfbench/pin.py

LR, plethysm and Kostka-Foulkes rungs are checked against the lattice-word,
polynomial-evaluation and charge oracles, which are cheap at these sizes.
The Kronecker rungs have no oracle that finishes at weight 32; they are
checked against the weight-reduction planner path instead.  Exits 1 on any
disagreement.
"""

import os
import sys


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from rectsym import coefficients, hall_littlewood, symmetries
    from workloads import RUNGS, plain_value

    oracles = {
        "lr": ("lattice words", coefficients.lr_coefficient_oracle),
        "pleth": ("plethysm oracle", coefficients.plethysm_oracle),
        "kf": ("charge", hall_littlewood.kostka_foulkes_charge),
        "kron": (
            "planner",
            lambda *t: symmetries.reduced_value(symmetries.reduce_kronecker(*t)),
        ),
    }
    bad = 0
    for family, indices, pinned in RUNGS:
        route, oracle = oracles[family]
        value = plain_value(oracle(*indices))
        ok = value == pinned
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {family:5s} {indices} by {route}: {value}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
