"""Regenerate references.json, the stored outputs the benchmark checks against.

    python3 perfbench/make_references.py

For every nominal input and every LATTICE factor a seed can draw:
* the tanh-pair P of numeric_ladder and of each sweep_parallel row, solved at
  REF_TOL (a hundredth of the benchmark's tolerance);
* the interference_zeros of asymptotic_scan and every grid prediction.
msa_connection is checked by its fitted residual orders and needs none.
Takes a few minutes; run it only when the workloads' inputs change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import (  # noqa: E402
    LATTICE, PREDICTORS, REF_TOL, REFERENCES, TANH_PAIR, AsymptoticScan, NumericLadder,
    SweepParallel, tanh_eps)
import crossinglab.predictor as predictor  # noqa: E402
from crossinglab.potential import find_crossings, model_from_config  # noqa: E402
from crossinglab.scattering import scattering_matrix  # noqa: E402


def tanh_p(model, cat, h: float, k: int) -> float:
    return scattering_matrix(model, tanh_eps(h, k), h, tol=REF_TOL, catalog=cat).p_transition


def main() -> None:
    pair = model_from_config(TANH_PAIR)
    pair_cat = find_crossings(pair)
    lattice = range(len(LATTICE))
    refs = {"lattice": list(LATTICE), "ref_tol": REF_TOL}
    refs["numeric_ladder"] = {rung: [tanh_p(pair, pair_cat, h, k) for k in lattice]
                              for rung, h in NumericLadder.RUNGS}
    refs["sweep_parallel"] = {"rows": [[tanh_p(pair, pair_cat, h, k) for k in lattice]
                                       for h in SweepParallel.H_LADDER]}
    scan = AsymptoticScan(0)
    scan.setup()
    grid = []
    for i in range(len(AsymptoticScan.NOMINAL)):
        row = []
        for k in lattice:
            kind, eps, h, oracles, _ = AsymptoticScan.point(i, k)
            model, cat = scan.grid_model(kind)
            row.append({o: PREDICTORS[o](model, cat, eps, h) for o in oracles})
        grid.append(row)
    refs["asymptotic_scan"] = {
        "izeros": [predictor.interference_zeros(scan.three, scan.three_cat,
                                                AsymptoticScan.izeros_range(k),
                                                samples=AsymptoticScan.IZEROS_SAMPLES)
                   for k in lattice],
        "grid": grid,
    }
    refs["msa_connection"] = {}
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
