"""Regenerate bench/reference.json from the current qplane sources.

    python3 bench/record_reference.py

Records the reference calibration time (the speed every timing is rescaled
to) and the Hom/Ext dimensions of hom_ext(M, M) for a generic point M of
every component the commutant_elim workload can draw.  The dimensions are
recorded at three sample seeds and must agree, since a generic point's
Hom/Ext depends only on its component.  Run it only on a commit whose
hom_ext is trusted: the workload checks later commits against this file.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import BENCH, SRC, calibrate

SAMPLE_SEEDS = (0, 1, 2)


def main():
    sys.path.insert(0, str(SRC))
    import qplane as Q
    from workloads import HOMEXT_SIZES, index_key
    calib = statistics.median(calibrate() for _ in range(2001))
    homext = {}
    for ell, sizes in sorted(HOMEXT_SIZES.items()):
        for n in sorted(set(sizes)):
            for idx in Q.enumerate_ML(ell, n):
                dims = set()
                for seed in SAMPLE_SEEDS:
                    M = Q.sample_point(idx, seed=seed)
                    r = Q.hom_ext(M, M)
                    dims.add((r.hom_dim, r.ext1_dim, r.ext2_dim))
                if len(dims) != 1:
                    raise SystemExit(f"{index_key(idx)}: dims depend on the seed: {dims}")
                homext[index_key(idx)] = list(dims.pop())
    out = {"calib_s": calib, "homext": homext}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"calib_s {calib:.6g}, {len(homext)} Hom/Ext entries")


if __name__ == "__main__":
    main()
