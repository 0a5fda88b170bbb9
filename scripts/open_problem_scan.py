#!/usr/bin/env python3
"""Scan the built-in families for non-complete graphs whose vertex
connectivity exceeds |S(G)| -- candidates around the open classification
question. Prints every kappa_exceeds_S hit and a summary.

Usage: python scripts/open_problem_scan.py [MAX_ORDER]
"""

import sys
from collections import Counter

from thetagraph import (
    FAMILIES,
    build_theta,
    enumerate_groups,
    open_problem_classify,
    prime_order_set,
    vertex_connectivity,
)


def main(max_order: int) -> None:
    counts: Counter[str] = Counter()
    for order, family, params, g in enumerate_groups(max_order, FAMILIES):
        t = build_theta(g)
        cls = open_problem_classify(t)
        counts[cls] += 1
        if cls == "kappa_exceeds_S":
            kappa = vertex_connectivity(t).kappa
            s = prime_order_set(t).size
            print(f"HIT {family}({params}) order={order}: kappa={kappa} > |S|={s}")
    print("summary:", dict(sorted(counts.items())))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 64)
