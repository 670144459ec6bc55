"""Command-line front end emitting machine-readable experiment tables.

Verbs
-----
asymptotics   closed-form moment/entropy/rank scan over (L, t, alpha) grids
distribution  universal eigenvalue law and cumulative count curves
rank          effective-rank sweep over truncation errors
ising         field-quench free energy, e2, and finite-L entropy tables
ed            exact-diagonalization rank curves and projection errors

Every verb reads a flat INI config (`--config`), writes CSV or JSON
(`--out`, `--format`), and is deterministic for a fixed config: floats are
emitted with shortest round-trip repr, rows are sorted by their key
columns, and the schema line is versioned. `ising` computes its (L, alpha)
cells one after another from a single f table up to the window length.
`--seed` and `--threads` are accepted and unused.
Exit codes: 0 success, 2 config error, 3 numerical-accuracy failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import asymptotics as asym
from . import ed as edm
from . import overlap as ovl
from .errors import AccuracyError, ConfigError, DomainError, NoSolutionError, QspanError

SCHEMA_PREFIX = "qspan"
SCHEMA_VERSION = "v1"


# ---------------------------------------------------------------------------
# Config access helpers (every failure carries section/key context)
# ---------------------------------------------------------------------------

def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    cfg.base_dir = Path(path).resolve().parent  # anchor for relative paths
    return cfg


def _resolve_path(cfg, raw: str) -> Path:
    p = Path(raw)
    if not p.is_absolute():
        p = getattr(cfg, "base_dir", Path.cwd()) / p
    return p


def _get(cfg, section, key, default=None, required=False):
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    return cfg.get(section, key).strip()


def _get_float(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, required=required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None


def _get_int(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _get_floats(cfg, section, key, required=False):
    raw = _get(cfg, section, key, required=required)
    if raw is None:
        return None
    try:
        return [float(tok) for tok in raw.split()]
    except ValueError:
        raise ConfigError(f"[{section}] {key}: bad number list {raw!r}") from None


def _get_ints(cfg, section, key, required=False):
    vals = _get_floats(cfg, section, key, required=required)
    if vals is None:
        return None
    out = []
    for v in vals:
        if not math.isfinite(v) or v != int(v):
            raise ConfigError(f"[{section}] {key}: expected integers")
        out.append(int(v))
    return out


def _require_sorted(values, what):
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{what} must be strictly increasing")
    return values


def _require_positive(values, what):
    if not all(0 < v < math.inf for v in values):   # NaN fails too
        raise ConfigError(f"{what} must be positive and finite")
    return values


# ---------------------------------------------------------------------------
# Deterministic table writing
# ---------------------------------------------------------------------------

def _fmt_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def _write_table(out: Path, fmt: str, schema: str, columns, rows, meta=None):
    schema_id = f"{SCHEMA_PREFIX}-{schema}-{SCHEMA_VERSION}"
    out.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [f"# schema: {schema_id}"]
        for key in sorted((meta or {})):
            lines.append(f"# {key}: {_fmt_cell(meta[key])}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt_cell(c) for c in row))
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        def clean(x):
            if isinstance(x, (int, np.integer)):
                return int(x)
            x = float(x)
            return x if math.isfinite(x) else None
        doc = {
            "schema": schema_id,
            "meta": {k: clean(v) for k, v in sorted((meta or {}).items())},
            "columns": list(columns),
            "rows": [[clean(c) for c in row] for row in rows],
        }
        out.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                  allow_nan=False) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"unknown format {fmt!r}")


def _sibling(out: Path, tag: str) -> Path:
    return out.with_name(out.stem + "_" + tag + out.suffix)


# ---------------------------------------------------------------------------
# asymptotics / distribution / rank verbs
# ---------------------------------------------------------------------------

def _cumulant_series(cfg, L: int) -> asym.CumulantSeries:
    e2 = _get_float(cfg, "cumulants", "e2", required=True)
    e1 = _get_float(cfg, "cumulants", "e1", default=0.0)
    d = _get_int(cfg, "cumulants", "d", default=1)
    try:
        return asym.CumulantSeries(e=(e1, e2), L=L, d=d)
    except DomainError as exc:
        raise ConfigError(f"[cumulants]: {exc}") from exc


def cmd_asymptotics(cfg, out: Path, fmt: str) -> None:
    l_list = _get_ints(cfg, "grid", "L", required=True)
    if sorted(l_list) != l_list:
        raise ConfigError("[grid] L must be sorted ascending")
    t_list = _require_positive(_require_sorted(
        _get_floats(cfg, "grid", "t", required=True), "[grid] t"), "[grid] t")
    alphas = _require_positive(_get_floats(cfg, "grid", "alpha",
                                           required=True), "[grid] alpha")
    eps = _get_float(cfg, "rank", "epsilon", required=True)

    rows = []
    for L in l_list:
        cs = _cumulant_series(cfg, L)
        for t in t_list:
            sol = asym.solve_rank_system(cs, asym.RankQuery(eps, t))
            s_vn = asym.von_neumann_asymptotic(cs, t)
            for alpha in alphas:
                if alpha == 1.0:
                    moment, s_a = 1.0, s_vn
                else:
                    moment = (asym.moment_asymptotic(cs, t, alpha)
                              if alpha == int(alpha) and alpha >= 1
                              else math.nan)
                    s_a = asym.renyi_asymptotic(cs, t, alpha)
                rows.append((L, t, alpha, moment, s_a, s_vn,
                             sol.D, sol.lambda_eps))
    _write_table(out, fmt, "asymptotics",
                 ("L", "t", "alpha", "moment", "S_alpha", "S_vN",
                  "D", "lambda_cut"),
                 rows, meta={"epsilon": eps})


def _window_t(cfg) -> float:
    t = _get_float(cfg, "window", "t", required=True)
    return _require_positive([t], "[window] t")[0]


def cmd_distribution(cfg, out: Path, fmt: str) -> None:
    L = _get_int(cfg, "system", "L", required=True)
    t = _window_t(cfg)
    cs = _cumulant_series(cfg, L)
    x_min = _get_float(cfg, "grid", "x_min", default=1e-6)
    n_pts = _get_int(cfg, "grid", "points", default=200)
    if not 0.0 < x_min < 1.0:
        raise ConfigError("[grid] x_min must lie in (0, 1)")
    if n_pts < 1:
        raise ConfigError("[grid] points must be at least 1")
    xs = np.exp(np.linspace(math.log(x_min), math.log(1.0 - 1e-9), n_pts))
    edge = asym.support_edge(cs, t)
    rows = []
    for x in xs:
        lam = float(x) * edge
        rows.append((float(x), asym.pi_universal(float(x)), lam,
                     asym.eigenvalue_distribution(cs, t, lam),
                     asym.eigenvalue_count_above(cs, t, lam)))
    _write_table(out, fmt, "distribution",
                 ("x", "pi", "lambda", "P", "count"),
                 rows, meta={"L": L, "t": t, "e2": cs.e2,
                             "support_edge": edge})


def cmd_rank(cfg, out: Path, fmt: str) -> None:
    L = _get_int(cfg, "system", "L", required=True)
    t = _window_t(cfg)
    cs = _cumulant_series(cfg, L)
    eps_list = _require_sorted(_get_floats(cfg, "sweep", "epsilon",
                                           required=True), "[sweep] epsilon")
    delta_t = _get_float(cfg, "sweep", "delta_t", default=None)
    if delta_t is not None:
        _require_positive([delta_t], "[sweep] delta_t")
    rows = []
    for eps in eps_list:
        sol = asym.solve_rank_system(cs, asym.RankQuery(eps, t))
        try:
            d_small = asym.rank_small_eps(cs, t, eps)
        except DomainError:
            d_small = math.nan
        if delta_t is None:
            d_sliced = math.nan
        else:
            try:
                d_sliced = asym.rank_timesliced(cs, t, delta_t, eps)
            except DomainError:
                d_sliced = math.nan
        rows.append((eps, t, sol.x_eps, sol.lambda_eps, sol.D,
                     d_small, d_sliced))
    _write_table(out, fmt, "rank",
                 ("eps", "t", "x_eps", "lambda_eps", "D",
                  "D_small_eps", "D_timesliced"),
                 rows, meta={"L": L, "e2": cs.e2,
                             "delta_t": math.nan if delta_t is None
                             else delta_t})


# ---------------------------------------------------------------------------
# ising verb
# ---------------------------------------------------------------------------

def _parse_quench(cfg) -> ovl.IsingQuench:
    h_i = _get_float(cfg, "quench", "h_i", required=True)
    h_f = _get_float(cfg, "quench", "h_f", required=True)
    J = _get_float(cfg, "quench", "J", default=1.0)
    k_grid = _get_int(cfg, "quench", "k_grid", default=4096)
    try:
        return ovl.IsingQuench(h_i=h_i, h_f=h_f, J=J, k_grid=k_grid)
    except DomainError as exc:     # its message starts with the key
        raise ConfigError(f"[quench] {exc}") from exc


def cmd_ising(cfg, out: Path, fmt: str) -> None:
    quench = _parse_quench(cfg)
    t = _window_t(cfg)
    l_list = _require_positive(_get_ints(cfg, "grid", "L", required=True),
                               "[grid] L")
    if sorted(l_list) != l_list:
        raise ConfigError("[grid] L must be sorted ascending")
    alphas = _get_ints(cfg, "grid", "alpha", required=True)
    if not set(alphas) <= {2, 3, 4}:
        raise ConfigError("[grid] alpha must be among 2, 3, 4")
    scheme = _get(cfg, "quadrature", "scheme", default="auto")
    if scheme not in ("auto", "grid", "mc"):
        raise ConfigError(f"[quadrature] scheme: unknown {scheme!r}; "
                          "expected auto, grid or mc")
    rtol = _get_float(cfg, "quadrature", "rtol", default=None)
    if rtol is not None:
        _require_positive([rtol], "[quadrature] rtol")
    f_times = _get_floats(cfg, "samples", "t", required=False) or []

    f = ovl.DynamicalFreeEnergy.from_ising(quench)
    no_quench = quench.h_i == quench.h_f

    f_rows = []
    for tv in f_times:
        fv = complex(f(tv))
        f_rows.append((float(tv), fv.real, fv.imag))
    e2 = 0.0 if no_quench else ovl.second_cumulant_from_f(f)
    meta = {"h_i": quench.h_i, "h_f": quench.h_f, "J": quench.J, "t": t,
            "e2": e2}
    if f_rows:
        _write_table(_sibling(out, "f"), fmt, "ising-f",
                     ("t", "re_f", "im_f"), f_rows, meta=meta)

    def run_cell(L, alpha):
        if no_quench:
            # f == 0: no relaxation, every moment stays 1; entropies are
            # undefined and emitted as the nan sentinel
            return (L, alpha, 1.0, math.nan, math.nan, math.nan, math.nan)
        est = ovl.renyi_quadrature(f, L, 1, t, alpha, scheme=scheme,
                                   rtol=rtol)
        cs = asym.CumulantSeries(e=(0.0, e2), L=L, d=1)
        pred = asym.renyi_asymptotic(cs, t, alpha)
        pred_corr = asym.renyi_asymptotic(cs, t, alpha, with_correction=True)
        moment = math.exp((1 - alpha) * est.value)
        return (L, alpha, moment, est.value, est.error, pred, pred_corr)

    # serial: every cell reads the one f table up to t
    rows = [run_cell(L, alpha) for L in l_list for alpha in sorted(alphas)]
    _write_table(out, fmt, "ising",
                 ("L", "alpha", "moment", "S_quadrature", "S_error",
                  "S_prediction", "S_prediction_corrected"),
                 rows, meta=meta)


# ---------------------------------------------------------------------------
# ed verb
# ---------------------------------------------------------------------------

def _ed_system(cfg, L: int):
    model = _get(cfg, "system", "model", default="chaotic")
    J = _get_float(cfg, "system", "J", default=1.0)
    boundary = _get(cfg, "system", "boundary", default="periodic")
    initial = _get(cfg, "system", "initial", default=None)
    try:
        if model == "chaotic":
            spec = edm.chaotic_chain(L, J=J, boundary=boundary)
            initial = initial or "ground_state"
        elif model == "integrable":
            spec = edm.integrable_chain(L, J=J, boundary=boundary)
            initial = initial or "polarized_z"
        elif model == "file":
            path = _resolve_path(cfg, _get(cfg, "system", "hamiltonian_file",
                                           required=True))
            spec = edm.read_hamiltonian_file(path)
            initial = initial or "polarized_z"
        else:
            raise ConfigError(f"[system] model: unknown {model!r}")
    except (DomainError, edm.SizeError) as exc:
        raise ConfigError(f"[system]: {exc}") from exc

    if initial == "ground_state":
        if model == "chaotic":
            psi0 = edm.ground_state(
                edm.chaotic_initial_chain(spec.L, J=J, boundary=boundary))
        else:
            init_path = _resolve_path(cfg, _get(cfg, "system", "initial_file",
                                                required=True))
            psi0 = edm.ground_state(edm.read_hamiltonian_file(init_path))
    elif initial == "polarized_z":
        psi0 = edm.polarized_state(spec.L, "z")
    elif initial == "polarized_x":
        psi0 = edm.polarized_state(spec.L, "x")
    else:
        raise ConfigError(f"[system] initial: unknown {initial!r}")
    return spec, psi0


def cmd_ed(cfg, out: Path, fmt: str) -> None:
    model = _get(cfg, "system", "model", default="chaotic")
    if model == "file":
        l_list = [edm.read_hamiltonian_file(_resolve_path(
            cfg, _get(cfg, "system", "hamiltonian_file", required=True))).L]
    else:
        l_list = _get_ints(cfg, "system", "L", required=True)
        if sorted(l_list) != l_list:
            raise ConfigError("[system] L must be sorted ascending")
    times = _require_positive(_require_sorted(
        _get_floats(cfg, "grid", "t", required=True), "[grid] t"), "[grid] t")
    if not times:
        raise ConfigError("[grid] t must list at least one time")
    eps0 = _get_float(cfg, "schedule", "eps0", default=0.15)
    if not 0.0 < eps0 < 1.0:
        raise ConfigError("[schedule] eps0 must lie in (0, 1)")
    rate = _get_float(cfg, "schedule", "rate", default=100.0)
    if not rate >= 0.0:
        raise ConfigError("[schedule] rate must not be negative")
    t_proj = _require_positive(
        _get_floats(cfg, "projection", "T", required=False) or [],
        "[projection] T")
    n_proj = _get_int(cfg, "projection", "points", default=200)
    if n_proj < 1:
        raise ConfigError("[projection] points must be at least 1")

    def schedule(t: float) -> float:
        return eps0 / math.sqrt(1.0 + rate * t)

    rank_rows = []
    proj_rows = []
    for L in l_list:
        spec, psi0 = _ed_system(cfg, L)
        sd = edm.krylov_decomposition(spec, psi0, max(times + t_proj))
        curve = edm.rank_curve(spec, psi0, schedule, times, sd=sd)
        for i, t in enumerate(curve.times):
            rank_rows.append((spec.L, float(t), float(curve.epsilons[i]),
                              int(curve.dims[i]),
                              float(curve.dims_per_sqrt_l[i]),
                              float(curve.prediction_per_sqrt_l[i]),
                              curve.e2))
        for T in t_proj:
            res = edm.projection_error(sd, T, schedule(T),
                                       np.linspace(0.0, T, n_proj + 1))
            for j, tv in enumerate(res.times):
                proj_rows.append((spec.L, float(T), float(tv),
                                  float(res.error[j]),
                                  float(res.band_low[j]),
                                  float(res.band_high[j]), res.D))
    _write_table(out, fmt, "ed-rank",
                 ("L", "t", "epsilon", "D", "D_per_sqrt_L",
                  "prediction_per_sqrt_L", "e2"),
                 rank_rows, meta={"eps0": eps0, "rate": rate})
    if proj_rows:
        _write_table(_sibling(out, "proj"), fmt, "ed-proj",
                     ("L", "T", "t", "error", "band_low", "band_high", "D"),
                     proj_rows, meta={"eps0": eps0, "rate": rate})


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "asymptotics": cmd_asymptotics,
    "distribution": cmd_distribution,
    "rank": cmd_rank,
    "ising": cmd_ising,
    "ed": cmd_ed,
}


def bundled_config(name: str) -> Path:
    """Path of a packaged example config (see `qspan/data/`)."""
    return Path(resources.files("qspan").joinpath("data", name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qspan",
        description="Hilbert-space span of time-evolving lattice states")
    parser.add_argument("verb", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--out", required=True, help="output table path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        _COMMANDS[args.verb](cfg, Path(args.out), args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, NoSolutionError, QspanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
