"""The two workloads of the crossinglab benchmark, built from four parts.

Each workload is closed-loop: every library call waits for the previous one,
all from one driver process; the propagation workload adds only the
library's own pool of two workers.  One operation of a workload is one
operation of each of its parts, in turn.  The parts:

* numeric_ladder  -- the numerically exact side as h shrinks: the order-3 tanh
  pair at h = 1e-2, 1e-3, 1e-4 plus windowed LZ on the criterion-1 grid.  The
  cf4 propagator, V evaluation and the Jost tails do almost all the work.
* sweep_parallel  -- a 20-row h-ladder sweep (numeric, nonadiabatic, chain
  oracles) at jobs=2: the process pool and the per-row rebuild of model and
  catalog, which no other part measures.
* msa_connection  -- the MSA oracle of criterion 5 at h = 2e-4 on the windowed
  m = 2 and 3 polynomials, one grid per model reused across the 6-point mu
  ladder.  Spline builds in apply_K dominate; no propagator or predictor runs.
* asymptotic_scan -- closed forms only: the incommensurate three-crossing
  interference_zeros scan and a grid of nonadiabatic, chain and mixed
  predictions on the tanh pair and the (1, 3) demo potential.  h-independent
  phase integrals dominate; no propagation runs.

The workloads pair them so that each layer an optimisation targets does most
of its work in one workload and almost none in the other:

* propagation = numeric_ladder + sweep_parallel: propagator, Jost scattering,
  adaptive meshes, V evaluation and the process pool.
* oracles     = msa_connection + asymptotic_scan: MSA spline builds, phase
  integrals, predictor and transfer; no propagator runs.

Inputs come from the seed: nominal values are scaled by factors drawn from
LATTICE, so the reference values stored in references.json (written by
make_references.py) cover every input any seed can produce.  The library
only ever sees the generated numbers.  Where the cost of a call depends on h
by steps (the cf4 step control accepts or rejects a whole mesh; the MSA grid
is sized by h), the seed scales eps, not h, so that every seed asks for the
same amount of work.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import crossinglab.harness.sweep as sweep
import crossinglab.msa as msa
import crossinglab.potential.catalog as catalog
import crossinglab.potential.turning as turning
import crossinglab.predictor as predictor
import crossinglab.scattering as scattering
import crossinglab.transfer as transfer
from crossinglab.errors import CrossingLabError
from crossinglab.oscillatory import omega_m
from crossinglab.params import classify_regimes
from crossinglab.potential import model_from_config
from layers import parallel_efficiency

REFERENCES = Path(__file__).with_name("references.json")

LATTICE = (0.96, 0.98, 1.0, 1.02, 1.04)
TOL = 1e-9
REF_TOL = TOL / 100.0
# |P - P_ref| allowed for a solve at TOL against the reference at REF_TOL.
# The Richardson estimate bounds each entry of the propagated matrix by TOL
# and |P| = |S_21|^2 <= 1, so P moves by at most ~2 TOL; 10 TOL leaves room
# for the estimate being off by a small factor.
P_BOUND = 10.0 * TOL
# Closed forms are deterministic; the slack admits reordered arithmetic only.
CLOSED_FORM_RTOL = 1e-6

TANH_PAIR = {"family": "scaled_tanh_product", "params": {"scale": 1.0, "factors": [
    {"power": 3, "slope": 1.0, "center": 2.0},
    {"power": 3, "slope": 1.0, "center": -2.0},
]}}
THREE_CROSSINGS = {"family": "scaled_tanh_product", "params": {"scale": 1.0, "factors": [
    {"power": 3, "slope": 1.0, "center": 4.2},
    {"power": 3, "slope": 1.0, "center": 0.0},
    {"power": 3, "slope": 1.0, "center": -3.1},
]}}
LZ_WINDOWED = {"family": "linear_lz", "params": {"slope": 1.0, "window": 8.0, "sharpness": 4.0}}


def lattice_draws(seed: int, n: int) -> list[int]:
    """Indices into LATTICE, one per nominal point."""
    return [int(k) for k in np.random.default_rng(seed).integers(len(LATTICE), size=n)]


def tanh_eps(h: float, k: int) -> float:
    """eps on the path mu_3 = 0.05 LATTICE[k] of the tanh pair.

    The expression matches the sweep's power rule with coefficient
    0.05 LATTICE[k], so sweep rows and direct solves see the same eps.
    """
    return (0.05 * LATTICE[k]) * h ** 0.75


def rel_close(a: float, b: float, rtol: float = CLOSED_FORM_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Tally:
    """Counts attempted and failed operations and times each library call.

    A CrossingLabError is a failed operation; any other exception propagates
    and aborts the run, because it is a programming error.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.problems: list[str] = []

    def run(self, label: str, fn, *args, check=None, units: int = 1, **kwargs):
        """Call ``fn``; ``check(result)`` returns one problem string per failed unit."""
        self.attempted += units
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except CrossingLabError as exc:
            dt = time.perf_counter() - t0
            self.elapsed += dt
            self._fail(label, units, [f"{type(exc).__name__}: {exc}"])
            return None, dt
        dt = time.perf_counter() - t0
        self.elapsed += dt
        problems = check(result) if check is not None else []
        if problems:
            self._fail(label, min(len(problems), units), problems)
        return result, dt

    def _fail(self, label: str, units: int, problems: list[str]) -> None:
        self.failed += units
        self.problems.extend(f"{label}: {p}" for p in problems)


class Workload:
    """Inputs from a seed, a set-up, and one repeatable operation."""

    name = ""
    ops_per_round = 1       # operations in one full pass over the inputs
    min_ops = 1             # operations a run makes however short it is

    def __init__(self, seed: int, traced: bool = False):
        self.refs: dict = {}

    def use_references(self, refs: dict) -> None:
        """Take this workload's entry of references.json."""
        self.refs = refs[self.name]

    def setup(self, on_models=None) -> None:
        """Build models and catalogs; ``on_models(models)`` runs in between."""
        raise NotImplementedError

    def op(self, tally: Tally) -> dict[str, list[float]]:
        """One operation; returns named timing samples."""
        raise NotImplementedError

    def named(self, samples: dict[str, list[float]]) -> dict[str, float]:
        """The workload's named timings from the samples of an untraced run."""
        raise NotImplementedError

    def untraced_round(self, tally: Tally, samples: dict[str, list[float]]) -> tuple[float, dict]:
        """Untraced seconds of one traced round, and metrics measured on the way.

        ``samples`` are those of the untraced run; Composite.op records each
        part's operation times in it as ``part_s.<name>``.
        """
        return statistics.median(samples[f"part_s.{self.name}"]) * self.ops_per_round, {}


class NumericLadder(Workload):
    name = "numeric_ladder"
    RUNGS = (("h1e-2", 1e-2), ("h1e-3", 1e-3), ("h1e-4", 1e-4))
    LZ_GRID = tuple((eps, h) for eps in (0.05, 0.1, 0.2) for h in (0.05, 0.1, 0.2))

    def __init__(self, seed, traced=False):
        super().__init__(seed, traced)
        draws = lattice_draws(seed, len(self.RUNGS) + len(self.LZ_GRID))
        self.tanh_points = []
        for (rung, h), k in zip(self.RUNGS, draws):
            self.tanh_points.append((rung, tanh_eps(h, k), h, k))
        self.lz_points = [(eps * LATTICE[k], h * LATTICE[k])
                          for (eps, h), k in zip(self.LZ_GRID, draws[len(self.RUNGS):])]

    def setup(self, on_models=None):
        self.pair = model_from_config(TANH_PAIR)
        self.lz = model_from_config(LZ_WINDOWED)
        if on_models:
            on_models([self.pair, self.lz])
        self.pair_cat = catalog.find_crossings(self.pair)
        self.lz_cat = catalog.find_crossings(self.lz)

    def op(self, tally):
        samples: dict[str, list[float]] = {}
        for rung, eps, h, k in self.tanh_points:
            ref = self.refs[rung][k]
            _, dt = tally.run(f"tanh {rung}", scattering.scattering_matrix, self.pair, eps, h,
                              tol=TOL, catalog=self.pair_cat,
                              check=lambda rep, ref=ref: self._check_tanh(rep, ref))
            samples.setdefault(f"scatter_s.{rung}", []).append(dt)
        for eps, h in self.lz_points:
            _, dt = tally.run("lz", scattering.scattering_matrix, self.lz, eps, h,
                              tol=TOL, catalog=self.lz_cat, check=self._check_lz)
            samples.setdefault("scatter_s.lz", []).append(dt)
        return samples

    @staticmethod
    def _check_tol(rep) -> list[str]:
        err = rep.diagnostics["richardson_error"]
        return [] if err <= TOL else [f"richardson_error {err:.3e} > tol {TOL:.0e}"]

    def _check_tanh(self, rep, ref) -> list[str]:
        problems = self._check_tol(rep)
        if not abs(rep.p_transition - ref) <= P_BOUND:
            problems.append(f"P={rep.p_transition!r} vs reference {ref!r} at eps={rep.eps}, h={rep.h}")
        return problems

    def _check_lz(self, rep) -> list[str]:
        problems = self._check_tol(rep)
        exact = scattering.landau_zener_probability(rep.eps, rep.h)
        if not abs(rep.p_transition - exact) < 1e-4:
            problems.append(f"P={rep.p_transition!r} vs exp(-pi eps^2/h)={exact!r}")
        return problems

    def named(self, samples):
        return {name: statistics.median(vals) for name, vals in samples.items()
                if name.startswith("scatter_s.")}


class MsaConnection(Workload):
    name = "msa_connection"
    H = 2e-4
    HALF = 1.2
    MUS = (0.1, 0.0707, 0.05, 0.0354, 0.025, 0.0177)
    COEFFS = {2: [0, 0, 1.0], 3: [0, 0, 0, 1.0]}
    # one operation is one connection matrix per model at the same mu: the
    # m = 3 grid is 20% larger, so single calls would make a two-peaked median
    ops_per_round = len(MUS)
    min_ops = ops_per_round      # the order fit needs every mu of both ladders

    def __init__(self, seed, traced=False):
        super().__init__(seed, traced)
        draws = lattice_draws(seed, 2 * len(self.MUS))
        self.mus = {2: [mu_val * LATTICE[k] for mu_val, k in zip(self.MUS, draws)],
                    3: [mu_val * LATTICE[k] for mu_val, k in zip(self.MUS, draws[len(self.MUS):])]}
        self.ops = 0
        self.residuals: dict[int, list[tuple[float, float]]] = {2: [], 3: []}

    def setup(self, on_models=None):
        self.models = {m: model_from_config({"family": "polynomial_windowed", "params": {
                           "coefficients": c, "window": 3.0, "sharpness": 8.0}})
                       for m, c in self.COEFFS.items()}
        if on_models:
            on_models(list(self.models.values()))
        self.cats = {m: catalog.find_crossings(model) for m, model in self.models.items()}
        self.grids = {m: msa.MsaGrid.build(model, self.H, (-self.HALF, self.HALF), 0.0)
                      for m, model in self.models.items()}

    def op(self, tally):
        i = self.ops % len(self.MUS)
        first_cycle = self.ops < len(self.MUS)
        self.ops += 1
        samples = []
        for m, model in self.models.items():
            mu_val = self.mus[m][i]

            def check(t_num, m=m, mu_val=mu_val):
                if not np.all(np.isfinite(t_num)):
                    return ["non-finite connection matrix"]
                if first_cycle:
                    w = omega_m(m, self.cats[m].crossings[0].v)
                    self.residuals[m].append(
                        (mu_val, abs(t_num[1, 0] - (-1j * np.conj(w) * mu_val))))
                    if len(self.residuals[m]) == len(self.MUS):
                        return self._check_order(m)
                return []

            _, dt = tally.run(f"connection m={m}", msa.connection_T_numeric, model,
                              mu_val * self.H ** (m / (m + 1.0)), self.H, 0, -self.HALF,
                              self.HALF, depth=3, catalog=self.cats[m], grid=self.grids[m],
                              check=check)
            samples.append(dt)
        return {"msa_connection_s": samples}

    def _check_order(self, m) -> list[str]:
        """Criterion 5: the off-diagonal residual order in mu stays above its bound."""
        mus, resid = zip(*self.residuals[m])
        slope = float(np.polyfit(np.log(mus), np.log(resid), 1)[0])
        bound = min(2.0, 1.0 + 1.0 / (m + 1))
        return [] if slope >= bound - 1e-9 else [f"m={m} fitted order {slope:.3f} < {bound:.3f}"]

    def named(self, samples):
        return {"msa_connection_s": statistics.median(samples["msa_connection_s"])}


def nonadiabatic(model, cat, eps, h) -> float:
    return predictor.predict_nonadiabatic(model, cat, eps, h).p_pred


def chain(model, cat, eps, h) -> float:
    split = classify_regimes(cat.orders, eps, h)
    return transfer.predicted_scattering(model, eps, h, split, catalog=cat).p_pred


def mixed(model, cat, eps, h) -> float:
    split = classify_regimes(cat.orders, eps, h)
    tps = {k: turning.turning_points(model, cat, k, eps)
           for k, a in enumerate(split.assignment) if a == "A"}
    return predictor.predict_mixed(model, cat, eps, h, split, turning_sets=tps).p_pred


PREDICTORS = {"nonadiabatic": nonadiabatic, "chain": chain, "mixed": mixed}


class AsymptoticScan(Workload):
    name = "asymptotic_scan"
    IZEROS_RANGE = (0.02, 0.09)
    # the library's default sample count: a 2048-sample scan takes ~1.5 s, short
    # enough for a run to take a steady median over many scans
    IZEROS_SAMPLES = 2048
    # Grid points lie outside the untreated band 0.1 < mu < 10 of every
    # crossing.  Tanh pair (orders 3, 3): mu_3 = eps h^-3/4 <= 0.08.
    TANH_H = tuple(float(h) for h in np.geomspace(1e-2, 1e-5, 12))
    TANH_MU = (0.02, 0.04, 0.06, 0.08)
    # Demo (orders 1, 3), both crossings adiabatic: mu_1 = eps h^-1/2 >= 10.5
    # forces mu_3 = mu_1 h^-1/4 far above 10.
    DEMO_A_H = (1e-4, 2e-4, 4e-4, 1e-3)
    DEMO_A_MU1 = (11.0, 14.0, 18.0)
    # Demo, both crossings diabatic: a share of the largest eps with
    # sqrt(log 1/h) eps h^-1/2 <= 0.1 and eps h^-3/4 <= 0.1.
    DEMO_N_H = (1e-3, 1e-4, 1e-5, 1e-6)
    DEMO_N_SHARE = (0.3, 0.6, 0.9)

    NOMINAL = ([("pair", h, x, ("nonadiabatic", "chain"))
                for h, x in itertools.product(TANH_H, TANH_MU)]
               + [("demo_a", h, x, ("mixed", "chain"))
                  for h, x in itertools.product(DEMO_A_H, DEMO_A_MU1)]
               + [("demo_n", h, x, ("nonadiabatic", "chain", "mixed"))
                  for h, x in itertools.product(DEMO_N_H, DEMO_N_SHARE)])

    def __init__(self, seed, traced=False):
        super().__init__(seed, traced)
        draws = lattice_draws(seed, 1 + len(self.NOMINAL))
        self.range_k = draws[0]
        self.h_range = self.izeros_range(self.range_k)
        self.points = [self.point(i, k) for i, k in enumerate(draws[1:])]

    @classmethod
    def izeros_range(cls, k: int) -> tuple[float, float]:
        return (cls.IZEROS_RANGE[0] * LATTICE[k], cls.IZEROS_RANGE[1] * LATTICE[k])

    @classmethod
    def point(cls, i: int, k: int):
        """Grid point i with lattice factor k: (kind, eps, h, oracles, k)."""
        kind, h, x, oracles = cls.NOMINAL[i]
        h = h * LATTICE[k]
        if kind == "pair":
            eps = x * h ** 0.75
        elif kind == "demo_a":
            eps = x * h ** 0.5
        else:
            eps = x * min(0.1 * h ** 0.5 / math.sqrt(math.log(1.0 / h)), 0.1 * h ** 0.75)
        return kind, eps, h, oracles, k

    def setup(self, on_models=None):
        self.three = model_from_config(THREE_CROSSINGS)
        self.pair = model_from_config(TANH_PAIR)
        self.demo = model_from_config(sweep.DEMO_POTENTIAL)
        if on_models:
            on_models([self.three, self.pair, self.demo])
        self.three_cat = catalog.find_crossings(self.three)
        self.pair_cat = catalog.find_crossings(self.pair)
        self.demo_cat = catalog.find_crossings(self.demo)

    def op(self, tally):
        ref_zeros = self.refs["izeros"][self.range_k]

        def check_zeros(zeros):
            if len(zeros) != len(ref_zeros) or not all(map(rel_close, zeros, ref_zeros)):
                return [f"zeros {zeros} vs reference {ref_zeros}"]
            return []

        _, dt = tally.run("interference_zeros", predictor.interference_zeros, self.three,
                          self.three_cat, self.h_range, samples=self.IZEROS_SAMPLES,
                          check=check_zeros)
        samples = {"izeros_s": [dt], "prediction_s": []}
        for i, (kind, eps, h, oracles, k) in enumerate(self.points):
            model, cat = self.grid_model(kind)
            for oracle in oracles:
                ref = self.refs["grid"][i][k][oracle]
                _, dt = tally.run(f"{oracle} {kind} eps={eps:.4g} h={h:.4g}", PREDICTORS[oracle],
                                  model, cat, eps, h,
                                  check=lambda p, ref=ref: [] if rel_close(p, ref)
                                  else [f"P={p!r} vs reference {ref!r}"])
                samples["prediction_s"].append(dt)
        return samples

    def grid_model(self, kind):
        if kind == "pair":
            return self.pair, self.pair_cat
        return self.demo, self.demo_cat

    def named(self, samples):
        pred = samples["prediction_s"]
        return {"izeros_s": statistics.median(samples["izeros_s"]),
                "predictions_per_s": len(pred) / sum(pred)}


class SweepParallel(Workload):
    name = "sweep_parallel"
    H_LADDER = tuple(float(h) for h in np.geomspace(1e-1, 1e-3, 20))
    JOBS = 2

    def __init__(self, seed, traced=False):
        super().__init__(seed, traced)
        self.k = lattice_draws(seed, 1)[0]
        self.jobs = 1 if traced else self.JOBS

    def config(self, jobs: int) -> sweep.SweepConfig:
        return sweep.SweepConfig(
            potential=TANH_PAIR,
            grid={"type": "h_ladder", "h_values": list(self.H_LADDER),
                  "eps_rule": {"type": "power", "coeff": 0.05 * LATTICE[self.k],
                               "exponent": 0.75}},
            oracles=("numeric", "nonadiabatic", "chain"), tol=TOL, jobs=jobs, label="bench")

    def setup(self, on_models=None):
        self.pair = model_from_config(TANH_PAIR)
        if on_models:
            on_models([self.pair])
        self.pair_cat = catalog.find_crossings(self.pair)

    def sweep_once(self, tally, jobs: int) -> float:
        _, dt = tally.run(f"sweep jobs={jobs}", sweep.run_sweep, self.config(jobs),
                          check=self._check_rows, units=len(self.H_LADDER))
        return dt

    def op(self, tally):
        return {"sweep_s": [self.sweep_once(tally, self.jobs)]}

    def untraced_round(self, tally, samples):
        # the traced round runs at jobs=1 (spans in pool workers are lost), so
        # its untraced twin is a serial sweep, which also gives the efficiency
        serial = self.sweep_once(tally, jobs=1)
        return serial, {"harness.parallel_efficiency": parallel_efficiency(
            serial, statistics.median(samples["sweep_s"]), self.JOBS)}

    def _check_rows(self, rows) -> list[str]:
        problems = []
        for row in rows:
            ref = self.refs["rows"][row["index"]][self.k]
            if row["status"] != "ok":
                problems.append(f"row {row['index']} status {row['status']}: {row['error']}")
            elif not abs(row["P_numeric"] - ref) <= P_BOUND:
                problems.append(f"row {row['index']} P={row['P_numeric']!r} vs reference {ref!r}")
        return problems

    def named(self, samples):
        return {"sweep_rows_per_s": len(self.H_LADDER) / statistics.median(samples["sweep_s"])}


class Composite(Workload):
    """A workload whose operation is one operation of each part, in turn.

    The traced round makes each part's own full round instead, so a part
    with a long round (the MSA mu ladder) is not repeated for the others.
    """

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, seed, traced=False):
        super().__init__(seed, traced)
        self.members = [part(seed, traced) for part in self.parts]
        self.min_ops = max(part.min_ops for part in self.parts)

    def use_references(self, refs):
        for member in self.members:
            member.use_references(refs)

    def setup(self, on_models=None):
        for member in self.members:
            member.setup(on_models)

    def op(self, tally):
        samples: dict[str, list[float]] = {}
        for member in self.members:
            before = tally.elapsed
            samples.update(member.op(tally))
            samples.setdefault(f"part_s.{member.name}", []).append(tally.elapsed - before)
        return samples

    def traced_round(self, tally) -> None:
        for member in self.members:
            for _ in range(member.ops_per_round):
                member.op(tally)

    def named(self, samples):
        out = {}
        for member in self.members:
            out.update(member.named(samples))
        return out

    def untraced_round(self, tally, samples):
        """Untraced seconds of the traced round: the sum of the parts' rounds."""
        total, extra = 0.0, {}
        for member in self.members:
            part_s, more = member.untraced_round(tally, samples)
            total += part_s
            extra.update(more)
        return total, extra


class Propagation(Composite):
    name = "propagation"
    parts = (NumericLadder, SweepParallel)


class Oracles(Composite):
    name = "oracles"
    parts = (MsaConnection, AsymptoticScan)


WORKLOADS = {w.name: w for w in (Propagation, Oracles)}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
