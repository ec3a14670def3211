"""Write loci_counts.json: the number of locus configurations of every loci-grid cell.

Usage (from the repository root): python3 perfbench/make_loci_counts.py

Counts are taken with the default pinned triple (0, 1, infinity).  The
locus is invariant under the affine maps x -> a + (b - a) x, so the
workloads, which pin a seeded triple (a, b, infinity), must find the same
number in every cell.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from loghurwitz import ffield, loci  # noqa: E402

import oracles  # noqa: E402
from workloads import LOCI_COUNTS, LociGrid, _cell_key  # noqa: E402


def main():
    counts = {}
    for p, k, n_max in LociGrid.GRID:
        spec = ffield.FieldSpec(p, k)
        for n in range(3, n_max + 1):
            for m in oracles.pattern_pool(p, n):
                for kind in (loci.EXACT, loci.QUASI_EXACT):
                    found = loci.locus_search(loci.ZeroPolePattern(p, m), kind, spec)
                    counts[_cell_key(spec, m, kind)] = len(found)
    with open(LOCI_COUNTS, "w") as fh:
        json.dump(counts, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(counts)} cells, {sum(counts.values())} configurations")


if __name__ == "__main__":
    main()
