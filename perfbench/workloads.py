"""The three benchmark workloads: seeded request generators, request
execution and per-request output checks.

Every request is a pure function of (seed, index): `request(k)` draws from
`numpy.random.default_rng([seed, salt, k])`. The discrete properties that set
a request's cost (lattice size, number of solves, table size, query kind) follow
a fixed cycle, and the continuous ones are drawn from a stratum of their range
that the cycle position fixes. Two seeds therefore give different inputs of
the same cost profile, which keeps a short closed-loop run steady while the
program still sees only generated configs and arguments.

Checks run after the measured loop, outside every timed interval.
"""

from __future__ import annotations

import math
import os
import warnings
from pathlib import Path

import numpy as np

NPROC = len(os.sched_getaffinity(0))

# Tolerances stated by the checks.
E2_RTOL = 1e-9          # CSV/meta e2 against an independent route
ENTROPY_SIGMAS = 3.0    # a Monte Carlo cell may break the Renyi ordering
                        # by this many reported errors; grid cells may not
SCAN_PRED_RTOL = 0.10   # quadrature vs corrected prediction at L = 400
UNIFORM_RTOL = 1e-9     # uniform WeightFunction vs uniform formulas


def _rng(seed: int, salt: int, k: int) -> np.random.Generator:
    """Generator of request k; k = -1 draws the per-run (setup) inputs."""
    return np.random.default_rng([int(seed) % 2**32, salt, int(k) + 1])


# Share of its stratum a cost-setting value may move by; keeping it small keeps
# the cost of each cycle position, and so every metric, steady across seeds.
JITTER = 0.2


def _stratum(rng, lo: float, hi: float, index: int, count: int) -> float:
    """A value near the middle of stratum `index` of `count` over [lo, hi]."""
    width = (hi - lo) / count
    return lo + width * (index + 0.5 + JITTER * (rng.random() - 0.5))


def _parse_table(text: str):
    """(meta, rows) of a qspan CSV table; rows as float lists."""
    meta = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        else:
            body.append(line)
    rows = [[float(c) for c in line.split(",")] for line in body[1:] if line]
    return meta, rows


class Workload:
    """Interface of a workload; see the three subclasses."""

    name = ""
    predicted = ""       # layer expected to dominate the traced run
    tail_pct = 100.0     # fixed tail percentile (see README "Latency tail")
    cycle = 1            # requests after which the cost-setting properties
                         # repeat; throughput weights the positions equally
    period = 1           # requests after which the request mix repeats
    period_s = 1.0       # nominal wall time of one period (sizes traced runs)

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self):
        """Per-run state: generation and warm-up. Called several times."""

    def request(self, k: int) -> dict:
        raise NotImplementedError

    def execute(self, req: dict):
        raise NotImplementedError

    def check(self, req: dict, out) -> str | None:
        """None when the output is correct, else the reason."""
        raise NotImplementedError

    def check_group(self, done: list) -> dict:
        """Checks across requests: {request index: reason}."""
        return {}

    def smoke_requests(self) -> list[dict]:
        """A few small requests for `run.py --smoke`."""
        raise NotImplementedError

    def mix(self, reqs: list[dict]) -> dict:
        return {}

    @staticmethod
    def output_bytes(out) -> int:
        return 0


class _CliWorkload(Workload):
    """Requests that are one `qspan.cli.main` call on a generated config."""

    verb = ""

    def _run_cli(self, cfg_text: str, extra: list[str]):
        from qspan import cli
        cfg = self.workdir / "request.cfg"
        out = self.workdir / "out.csv"
        cfg.write_text(cfg_text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main([self.verb, "--config", str(cfg), "--out", str(out)]
                          + extra)
        files = {}
        for path in sorted(self.workdir.glob("out*.csv")):
            files[path.name] = path.read_text(encoding="utf-8")
            path.unlink()
        return {"rc": rc, "files": files}

    @staticmethod
    def output_bytes(out) -> int:
        return sum(len(v) for v in out["files"].values())


# ---------------------------------------------------------------------------
# ed-collapse
# ---------------------------------------------------------------------------

# (L, model, initial state, boundary, projection windows); L shares 5:2:1.
# The L = 8 requests share one cost class, so the median lands inside it.
ED_CYCLE = (
    (8, "integrable", "polarized_z", "open", 1),
    (9, "chaotic", "ground_state", "periodic", 2),
    (8, "integrable", "polarized_x", "periodic", 1),
    (10, "chaotic", "ground_state", "open", 1),
    (8, "integrable", "polarized_z", "periodic", 1),
    (8, "integrable", "polarized_x", "open", 1),
    (9, "integrable", "polarized_x", "open", 2),
    (8, "integrable", "polarized_z", "open", 1),
)
ED_GRID_POINTS = 8
ED_PROJ_POINTS = 200


class EdCollapse(_CliWorkload):
    name = "ed-collapse"
    predicted = "ed"
    verb = "ed"
    cycle = period = len(ED_CYCLE)
    period_s = 14.0

    def setup(self):
        # warm-up: one small request through the same path
        req = self.smoke_requests()[0]
        reason = self.check(req, self.execute(req))
        if reason:
            raise RuntimeError(f"warm-up request failed: {reason}")

    def smoke_requests(self):
        return [dict(self._draw(-1, (6, "chaotic", "ground_state", "open", 1)),
                     k=-1)]

    def _draw(self, k: int, pos) -> dict:
        L, model, initial, boundary, n_proj = pos
        rng = _rng(self.seed, 1, k)
        dt = rng.uniform(0.4, 0.6)
        return {
            "kind": f"L{L}", "L": L, "model": model, "initial": initial,
            "J": rng.uniform(0.8, 1.2), "boundary": boundary,
            "grid": [dt * (i + 1) for i in range(ED_GRID_POINTS)],
            "eps0": rng.uniform(0.1, 0.2), "rate": rng.uniform(50.0, 150.0),
            "T": sorted(rng.uniform(1.0, 4.0, n_proj).tolist()),
        }

    def request(self, k: int) -> dict:
        return dict(self._draw(k, ED_CYCLE[k % len(ED_CYCLE)]), k=k)

    def config(self, req: dict) -> str:
        return "\n".join([
            "[system]", f"model = {req['model']}", f"L = {req['L']}",
            f"J = {req['J']!r}", f"boundary = {req['boundary']}",
            f"initial = {req['initial']}",
            "[schedule]", f"eps0 = {req['eps0']!r}", f"rate = {req['rate']!r}",
            "[grid]", "t = " + " ".join(repr(t) for t in req["grid"]),
            "[projection]", "T = " + " ".join(repr(t) for t in req["T"]),
            f"points = {ED_PROJ_POINTS}", ""])

    def execute(self, req: dict):
        return self._run_cli(self.config(req), [])

    def check(self, req: dict, out) -> str | None:
        from qspan import ed
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        L, dim = req["L"], 2 ** req["L"]
        _, rank = _parse_table(out["files"].get("out.csv", ""))
        _, proj = _parse_table(out["files"].get("out_proj.csv", ""))
        if len(rank) != ED_GRID_POINTS:
            return f"{len(rank)} rank rows"
        if len(proj) != len(req["T"]) * (ED_PROJ_POINTS + 1):
            return f"{len(proj)} projection rows"
        for row in rank:
            if row[0] != L or not 1 <= row[3] <= dim:
                return f"rank row out of range: {row}"
        for row in proj:
            _, _, _, err, low, high, d = row
            if not 1 <= d <= dim or not 0.0 <= low <= err <= high <= 1.0:
                return f"projection row out of range: {row}"
        e2 = {row[6] for row in rank}
        if len(e2) != 1:
            return "e2 differs between rows"
        ref = self.reference_e2(req, ed)
        got = e2.pop()
        if abs(got - ref) > E2_RTOL * abs(ref):
            return f"e2 {got!r} vs matvec route {ref!r}"
        return None

    @staticmethod
    def reference_e2(req: dict, ed) -> float:
        """e2 by iterated matrix-vector products (no diagonalization of H)."""
        L, J, bc = req["L"], req["J"], req["boundary"]
        build = ed.chaotic_chain if req["model"] == "chaotic" else ed.integrable_chain
        spec = build(L, J=J, boundary=bc)
        if req["initial"] == "ground_state":
            psi0 = ed.ground_state(ed.chaotic_initial_chain(L, J=J, boundary=bc))
        else:
            psi0 = ed.polarized_state(L, req["initial"][-1])
        return float(ed.energy_cumulants((spec, psi0), 2)[1])

    def mix(self, reqs):
        n = max(len(reqs), 1)
        return {
            "L_shares": {f"L{L}": sum(r["L"] == L for r in reqs) / n
                         for L in (8, 9, 10)},
            "model_initial_shares": {
                f"{m}/{i}": sum(r["model"] == m and r["initial"] == i
                                for r in reqs) / n
                for m, i in (("chaotic", "ground_state"),
                             ("integrable", "polarized_z"),
                             ("integrable", "polarized_x"))},
            "open_boundary_share": sum(r["boundary"] == "open" for r in reqs) / n,
            "two_window_share": sum(len(r["T"]) == 2 for r in reqs) / n,
        }


# ---------------------------------------------------------------------------
# quench-fresh
# ---------------------------------------------------------------------------

# Field ranges by phase of the transverse-field Ising chain (critical h = 1).
PHASES = {"para": (1.0, 3.0), "ferro": (0.2, 1.0), "critical": (0.9, 1.1)}
# (initial phase, final phase, L list, k_grid)
QF_CYCLE = (
    ("inf", "para", (100, 200, 400), 512),
    ("ferro", "para", (200,), 1024),
    ("para", "ferro", (100, 400), 512),
    ("inf", "ferro", (400,), 1024),
    ("para", "para", (100, 200, 400), 512),
    ("ferro", "ferro", (100,), 1024),
    ("ferro", "critical", (200, 400), 512),
    ("para", "critical", (100, 200), 1024),
)
QF_T_STRATA = (3, 6, 0, 5, 2, 7, 1, 4)   # window stratum of each position
QF_T_RANGE = (0.2, 0.6)
QF_ALPHAS = (2, 3, 4)
QF_RTOL = 5e-2
# Smallest e2 * L_min * t^2 drawn. Below about 0.2 the state barely leaves
# its initial direction within the window and the alpha = 4 Monte Carlo
# estimator returns moments above 1, NaN, or misses QF_RTOL (README "Known
# failures"); its relative error is roughly 4e-3 / (e2 L t^2) there.
QF_DECAY_MIN = 0.3


def mode_integral_e2(h_i: float, h_f: float, J: float, k_grid: int) -> float:
    """int_0^pi dk/2pi eps_k^2 sin^2 Delta_k on the composite-Simpson grid of
    `k_grid` intervals, from `overlap.ising_dispersion`."""
    from qspan import overlap as ovl
    n = k_grid + (k_grid % 2)
    k = np.linspace(0.0, math.pi, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= math.pi / n / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eps, cos_delta = ovl.ising_dispersion(
            ovl.IsingQuench(h_i=h_i, h_f=h_f, J=J, k_grid=k_grid), k)
    return float(np.sum(w * eps ** 2 * (1.0 - cos_delta ** 2)) / (2 * math.pi))


class QuenchFresh(_CliWorkload):
    name = "quench-fresh"
    predicted = "overlap"
    verb = "ising"
    cycle = period = len(QF_CYCLE)
    period_s = 24.0

    def setup(self):
        req = self.smoke_requests()[0]
        reason = self.check(req, self.execute(req))
        if reason:
            raise RuntimeError(f"warm-up request failed: {reason}")

    def smoke_requests(self):
        return [{"kind": "smoke", "k": -1, "h_i": math.inf, "h_f": 1.5,
                 "J": 1.0, "k_grid": 64, "t": 0.3, "L": (100,),
                 "rejected": 0}]

    def request(self, k: int) -> dict:
        pos = k % len(QF_CYCLE)
        init, final, l_list, k_grid = QF_CYCLE[pos]
        rng = _rng(self.seed, 2, k)
        t = _stratum(rng, *QF_T_RANGE, QF_T_STRATA[pos], len(QF_T_STRATA))
        rejected = 0
        while True:
            h_i = math.inf if init == "inf" else rng.uniform(*PHASES[init])
            h_f = rng.uniform(*PHASES[final])
            e2 = mode_integral_e2(h_i, h_f, 1.0, k_grid)
            if e2 * min(l_list) * t * t >= QF_DECAY_MIN:
                break
            rejected += 1
        return {"kind": f"{init}->{final}", "k": k, "h_i": h_i, "h_f": h_f,
                "J": 1.0, "k_grid": k_grid, "t": t, "L": l_list,
                "rejected": rejected}

    def config(self, req: dict) -> str:
        return "\n".join([
            "[quench]", f"h_i = {req['h_i']!r}", f"h_f = {req['h_f']!r}",
            f"J = {req['J']!r}", f"k_grid = {req['k_grid']}",
            "[window]", f"t = {req['t']!r}",
            "[grid]", "L = " + " ".join(str(L) for L in req["L"]),
            "alpha = " + " ".join(str(a) for a in QF_ALPHAS),
            "[quadrature]", "scheme = auto", f"rtol = {QF_RTOL!r}", ""])

    def execute(self, req: dict):
        return self._run_cli(self.config(req), [
            "--seed", str(req["k"]), "--threads", str(NPROC)])

    def check(self, req: dict, out) -> str | None:
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        meta, rows = _parse_table(out["files"].get("out.csv", ""))
        if len(rows) != len(req["L"]) * len(QF_ALPHAS):
            return f"{len(rows)} rows"
        cells = {(int(r[0]), int(r[1])): r for r in rows}
        for L in req["L"]:
            prev = None
            for alpha in QF_ALPHAS:
                row = cells.get((L, alpha))
                if row is None:
                    return f"missing cell L={L} alpha={alpha}"
                moment, s, err = row[2], row[3], row[4]
                if not 0.0 < moment <= 1.0:
                    return f"moment {moment!r} outside (0, 1] at L={L} alpha={alpha}"
                if prev is not None:
                    # scheme auto: grid for alpha 2 and 3, Monte Carlo for 4
                    slack = ENTROPY_SIGMAS * (err + prev[1]) if alpha > 3 else 0.0
                    if s > prev[0] + slack:
                        return f"S_{alpha} > S_{alpha - 1} at L={L}"
                prev = (s, err)
        ref = mode_integral_e2(req["h_i"], req["h_f"], req["J"], req["k_grid"])
        got = float(meta.get("e2", "nan"))
        if not abs(got - ref) <= E2_RTOL * abs(ref):
            return f"e2 {got!r} vs mode integral {ref!r}"
        return None

    def mix(self, reqs):
        n = max(len(reqs), 1)
        drawn = sum(r["rejected"] + 1 for r in reqs)
        quenches = {(r["h_i"], r["h_f"]) for r in reqs}
        cross = sum((r["h_i"] > 1.0) != (r["h_f"] > 1.0) for r in reqs)
        return {
            "L_shares": {f"L{L}": sum(L in r["L"] for r in reqs) / n
                         for L in (100, 200, 400)},
            "alphas": list(QF_ALPHAS), "scheme": "auto (grid for 2, 3; mc for 4)",
            "k_grid_shares": {str(g): sum(r["k_grid"] == g for r in reqs) / n
                              for g in (512, 1024)},
            "cross_critical_share": cross / n,
            "h_i_inf_share": sum(math.isinf(r["h_i"]) for r in reqs) / n,
            "distinct_quenches": len(quenches),
            "repeated_quenches": len(reqs) - len(quenches),
            "weak_quench_draws_excluded": (drawn - len(reqs)) / max(drawn, 1),
        }


# ---------------------------------------------------------------------------
# quench-scan
# ---------------------------------------------------------------------------

SCAN_CYCLE_LEN = 50
# Positions of the query kinds in a cycle; the rest (35 of 50) are alpha = 3
# grid quadratures, so the median request is one of them. Interpreter-bound
# queries (uniform, weighted) are kept to a minority of the requests and of
# the time: their speed drifts about twice as much as the vectorized
# quadrature's on a shared host (README "Measured steadiness").
SCAN_QUAD = {6: (3, "mc"), 15: (2, "grid"), 18: (4, "mc"), 31: (4, "grid"),
             34: (2, "grid")}
SCAN_WRANK = 43                # one per cycle; the weight rotates by cycle
SCAN_WOTHER = {9: "renyi", 25: "phi", 40: "vn"}
SCAN_UNIFORM = (2, 12, 23, 27, 37, 47)
SCAN_UNIFORM_EPS = 4           # truncation strata swept by a uniform query
SCAN_L = (100, 200, 400)
SCAN_T_RANGE = (0.2, 0.6)
SCAN_GRID4 = ((100, 200), (0.2, 0.3))   # alpha = 4 grid: L choices, t range
SCAN_H_F = (1.3, 1.7)   # around the bundled quench h: inf -> 1.5
SCAN_K_GRID = 512
SCAN_RANK_L = 200
SCAN_EPS_RANGE = (0.05, 0.15)
SCAN_WEIGHT_WINDOWS = 2   # strata of SCAN_T_RANGE, one weight window each
WEIGHT_KINDS = ("ramp", "cosine", "exponential", "tabulated")
SCAN_WEIGHTS = len(WEIGHT_KINDS) * SCAN_WEIGHT_WINDOWS


class QuenchScan(Workload):
    name = "quench-scan"
    predicted = "overlap+asymptotics+special"
    tail_pct = 95.0
    cycle = SCAN_CYCLE_LEN
    period = SCAN_WEIGHTS * SCAN_CYCLE_LEN  # the weight rotates by cycle
    period_s = 15.0

    def setup(self):
        from qspan import asymptotics as asym
        from qspan import overlap as ovl
        rng = _rng(self.seed, 3, -1)
        self.h_f = rng.uniform(*SCAN_H_F)
        self.f = ovl.DynamicalFreeEnergy.from_ising(
            ovl.IsingQuench(h_i=math.inf, h_f=self.h_f, k_grid=SCAN_K_GRID))
        # widest table any query needs, (alpha_max - 1) t_max with margin
        self.f.table(3 * SCAN_T_RANGE[1] * 1.01)
        self.e2 = ovl.second_cumulant_from_f(self.f)
        asym._correction_value.cache_clear()
        cs = asym.CumulantSeries(e=(0.0, self.e2), L=SCAN_L[0])
        for alpha in (2, 3, 4):
            asym.renyi_asymptotic(cs, SCAN_T_RANGE[0], alpha,
                                  with_correction=True)
        self.weights = []
        for i in range(SCAN_WEIGHT_WINDOWS):
            t = _stratum(rng, *SCAN_T_RANGE, i, SCAN_WEIGHT_WINDOWS)
            nodes = np.linspace(0.0, t, 9)
            # rising profile with seeded node noise
            table = 1.0 + 0.5 * nodes / t + rng.uniform(-0.1, 0.1, nodes.size)
            self.weights += [
                ("ramp", asym.ramp_weight(t)),
                ("cosine", asym.cosine_bump_weight(t)),
                ("exponential", asym.truncated_exponential_weight(
                    t, _stratum(rng, 1.0, 3.0, 0, 1))),
                ("tabulated", asym.WeightFunction.from_table(nodes, table)),
            ]

    def request(self, k: int) -> dict:
        cycle, pos = divmod(k, SCAN_CYCLE_LEN)
        rng = _rng(self.seed, 4, k)
        if pos == SCAN_WRANK:
            # weight w = cycle % 8 (both windows, every kind); each weight
            # comes back every 8 cycles at the next eps stratum
            return {"kind": "weighted_rank", "k": k,
                    "w": cycle % SCAN_WEIGHTS,
                    "eps": _stratum(rng, *SCAN_EPS_RANGE,
                                    (cycle // SCAN_WEIGHTS) % 3, 3)}
        if pos in SCAN_WOTHER:
            what = SCAN_WOTHER[pos]
            req = {"kind": f"weighted_{what}", "k": k,
                   "w": (cycle + pos) % SCAN_WEIGHTS,
                   "L": SCAN_L[(cycle + pos) % len(SCAN_L)]}
            if what == "renyi":
                req["alpha"] = (0.5, 2.0, 3.0)[(cycle + pos) % 3]
            elif what == "phi":
                req["p_frac"] = rng.uniform(0.05, 0.95)
            return req
        if pos in SCAN_UNIFORM:
            return {"kind": "uniform", "k": k,
                    "L": int(rng.integers(50, 1001)),
                    "t": rng.uniform(0.1, 2.0),
                    "eps": [_stratum(rng, 0.01, 0.3, i, SCAN_UNIFORM_EPS)
                            for i in range(SCAN_UNIFORM_EPS)],
                    "slice": rng.uniform(0.01, 0.2),
                    "x": rng.uniform(0.01, 0.99)}
        alpha, scheme = SCAN_QUAD.get(pos, (3, "grid"))
        if alpha == 4 and scheme == "grid":
            l_choices, t_range = SCAN_GRID4
        else:
            l_choices, t_range = SCAN_L, SCAN_T_RANGE
        L = l_choices[(cycle + pos) % len(l_choices)]
        t = _stratum(rng, *t_range, (cycle + pos) % 4, 4)
        return {"kind": f"quad_a{alpha}_{scheme}", "k": k, "L": L, "t": t,
                "alpha": alpha, "scheme": scheme}

    def smoke_requests(self):
        first = {}
        for k in range(SCAN_CYCLE_LEN):
            req = self.request(k)
            first.setdefault(req["kind"], req)
        return list(first.values())

    def _cs(self, L):
        from qspan import asymptotics as asym
        return asym.CumulantSeries(e=(0.0, self.e2), L=L)

    def execute(self, req: dict):
        from qspan import asymptotics as asym
        from qspan import overlap as ovl
        kind = req["kind"]
        if kind == "uniform":  # a truncation sweep, like the `rank` verb
            cs, t = self._cs(req["L"]), req["t"]
            sweep = [(asym.solve_rank_system(cs, asym.RankQuery(eps, t)).D,
                      asym.rank_small_eps(cs, t, eps),
                      asym.rank_timesliced(cs, t, req["slice"] * t, eps))
                     for eps in req["eps"]]
            return (sweep,
                    asym.eigenvalue_count_above(cs, t, req["x"] / (cs.omega * t)),
                    asym.von_neumann_asymptotic(cs, t))
        if kind.startswith("quad"):
            cs = self._cs(req["L"])
            est = ovl.renyi_quadrature(self.f, req["L"], 1, req["t"],
                                       req["alpha"], scheme=req["scheme"],
                                       seed=req["k"])
            pred = asym.renyi_asymptotic(cs, req["t"], req["alpha"],
                                         with_correction=True)
            return est.value, est.error, pred
        w = self.weights[req["w"]][1]
        if kind == "weighted_rank":
            sol = asym.weighted_rank_system(self._cs(SCAN_RANK_L), w, req["eps"])
            return sol.p_eps, sol.D
        cs = self._cs(req["L"])
        if kind == "weighted_renyi":
            return asym.weighted_renyi(cs, w, req["alpha"])
        if kind == "weighted_vn":
            return asym.weighted_von_neumann(cs, w)
        lam = req["p_frac"] * w.sup / cs.omega
        return asym.weighted_phi_density(cs, w, lam)

    def check(self, req: dict, out) -> str | None:
        from qspan import asymptotics as asym
        from qspan import overlap as ovl
        kind = req["kind"]
        if kind == "uniform":
            cs, t = self._cs(req["L"]), req["t"]
            sweep, count, s_vn = out
            for d, d_small, d_sliced in sweep:
                if not (d > 0 and d_small > 0):
                    return f"nonpositive rank {sweep}"
                if d_sliced < d:
                    return "time-sliced rank below the plain rank"
            dims = [row[0] for row in sweep]
            if any(b >= a for a, b in zip(dims, dims[1:])):
                return "rank does not decrease in eps"
            if count < 0:
                return f"negative eigenvalue count {count!r}"
            s2 = asym.renyi_asymptotic(cs, t, 2.0)
            if not s_vn > s2 > asym.renyi_asymptotic(cs, t, 3.0):
                return "Renyi entropies not decreasing in alpha"
            uni = asym.WeightFunction.uniform(t)
            for got, ref in ((asym.weighted_renyi(cs, uni, 2.0), s2),
                             (asym.weighted_von_neumann(cs, uni), s_vn)):
                if abs(got - ref) > UNIFORM_RTOL * abs(ref):
                    return f"uniform weight gives {got!r}, formula {ref!r}"
            return None
        if kind.startswith("quad"):
            s, err, pred = out
            alpha, L, t = req["alpha"], req["L"], req["t"]
            if not (math.isfinite(s) and s > 0):
                return f"entropy {s!r}"
            other = 3 if alpha != 3 else 2
            ref = ovl.renyi_quadrature(self.f, L, 1, t, other, scheme="grid")
            hi, lo = (ref, (s, err)) if other < alpha else ((s, err), ref)
            slack = ENTROPY_SIGMAS * (lo[1] + hi[1]) \
                if req["scheme"] == "mc" else 0.0
            if lo[0] > hi[0] + slack:
                return f"S_{max(alpha, other)} > S_{min(alpha, other)}"
            if L == max(SCAN_L) and abs(s - pred) > SCAN_PRED_RTOL * pred:
                return f"quadrature {s!r} vs corrected prediction {pred!r}"
            return None
        name, w = self.weights[req["w"]]
        if kind == "weighted_rank":
            p_eps, d = out
            if not (0.0 < p_eps <= w.sup and d > 0):
                return f"weighted rank out of range {out}"
            return None  # monotonicity in eps: see check_group
        if not math.isfinite(out):
            return f"{kind} returned {out!r}"
        cs = self._cs(req["L"])
        if kind == "weighted_renyi":
            nxt = asym.weighted_renyi(cs, w, req["alpha"] + 1.0)
            if nxt > out:
                return "weighted Renyi entropy increases with alpha"
        elif kind == "weighted_vn":
            if out > asym.von_neumann_asymptotic(cs, w.t) + 1e-12:
                return f"{name} weight beats the uniform von Neumann entropy"
        elif out < 0.0:
            return f"negative weighted density {out!r}"
        return None

    def check_group(self, done: list) -> dict:
        """weighted_rank_system D must decrease in eps on each weight.

        Returns {request index: reason} for the requests that break it."""
        by_weight = {}
        for req, out in done:
            if req["kind"] == "weighted_rank":
                by_weight.setdefault(req["w"], []).append((req["eps"], out[1],
                                                           req["k"]))
        bad = {}
        for rows in by_weight.values():
            rows.sort()
            for (e0, d0, _), (e1, d1, k1) in zip(rows, rows[1:]):
                if e1 > e0 and not d1 < d0:
                    bad[k1] = f"D({e1:.4f}) = {d1!r} not below D({e0:.4f}) = {d0!r}"
        return bad

    def mix(self, reqs):
        # the share of each query kind is reported as `kinds` by run.py
        return {"h_i": "inf", "h_f": self.h_f, "e2": self.e2,
                "weights": [w[0] for w in self.weights]}


WORKLOADS = {w.name: w for w in (EdCollapse, QuenchFresh, QuenchScan)}


def weak_quench_probe(workdir: Path) -> str:
    """Outcome of one quench below QF_DECAY_MIN (h 1.5 -> 1.45, t 0.2,
    L 100): the failure region quench-fresh does not draw from."""
    wl = QuenchFresh(0, workdir)
    req = {"kind": "probe", "k": 0, "h_i": 1.5, "h_f": 1.45, "J": 1.0,
           "k_grid": 512, "t": 0.2, "L": (100,), "rejected": 0}
    try:
        out = wl.execute(req)
    except Exception as exc:
        return f"weak quench: raised {type(exc).__name__}: {exc}"
    return "weak quench: " + (wl.check(req, out) or "passed")


def revival_probe(workdir: Path) -> str:
    """alpha = 3 Monte Carlo against the grid for h: inf -> 2.9, L 200,
    t 0.57: the revival region quench-scan does not draw from."""
    from qspan import overlap as ovl
    f = ovl.DynamicalFreeEnergy.from_ising(
        ovl.IsingQuench(h_i=math.inf, h_f=2.9, k_grid=SCAN_K_GRID))
    mc = ovl.renyi_quadrature(f, 200, 1, 0.57, 3, scheme="mc")
    grid = ovl.renyi_quadrature(f, 200, 1, 0.57, 3, scheme="grid")
    apart = (mc.value - grid.value) / (mc.error + grid.error)
    return (f"revival: S_3 mc {mc.value:.4f} vs grid {grid.value:.4f}, "
            f"{apart:.0f} reported errors apart")


KNOWN_FAILURE_PROBES = (weak_quench_probe, revival_probe)
