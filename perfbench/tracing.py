"""Span tracing of the qspan layers, installed from the benchmark's own files.

`Tracer.install()` replaces the public functions of `qspan.ed`,
`qspan.overlap`, `qspan.asymptotics`, `qspan.special` and `qspan.cli` with
recording wrappers, including the names a consumer module binds at import
time (`qspan.ed.erf_inv`, `qspan.asymptotics.adaptive_simpson` / `erf` /
`erf_inv` / `correction_integral`). `cli` reaches `overlap` and `ed` through
module attributes (`ovl.`, `edm.`), so wrapping those modules covers it.
Nothing under `src/` changes; `uninstall()` restores every original.

A span records name, start, end, parent span and request id. Spans are kept
in memory and reduced at the end: a span's self time is its duration minus
the part of its interval covered by its children (an interval union, because
`cli ising --threads N` runs children concurrently). A span opened on a worker
thread with an empty stack takes the innermost open span of the thread that
issued the request as its parent.

Very frequent scalar calls (`special.erf`, integrand evaluations inside
`adaptive_simpson`) are counted, not spanned, to keep the traced run close
to the untraced one.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

# Layer metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("ed.spectral_decomposition.self_s", "s"),
    ("ed.averaged_state.self_s", "s"),
    ("ed.ground_state.self_s", "s"),
    ("ed.build_hamiltonian.self_s", "s"),
    ("ed.projection_error.self_s", "s"),
    ("ed.energy_cumulants.self_s", "s"),
    ("ed.averaged_state.calls", "count"),
    ("ed.eigensolve_n3_values", "count"),
    ("ed.eigensolve_n3_vectors", "count"),
    ("ed.cpu_per_wall", "ratio"),
    ("overlap.table.self_s", "s"),
    ("overlap.table.builds", "count"),
    ("overlap.table.mode_logs", "count"),
    ("overlap.table.useful_ratio", "ratio"),
    ("overlap.moments_quadrature.grid.self_s", "s"),
    ("overlap.moments_quadrature.mc.self_s", "s"),
    ("overlap.moments_quadrature.calls", "count"),
    ("overlap.second_cumulant_from_f.self_s", "s"),
    ("overlap.accuracy_errors", "count"),
    ("asymptotics.weighted_rank_system.self_s", "s"),
    ("asymptotics.weighted_rank_system.calls", "count"),
    ("asymptotics.weighted_other.self_s", "s"),
    ("asymptotics.uniform.self_s", "s"),
    ("special.adaptive_simpson.self_s", "s"),
    ("special.adaptive_simpson.integrand_evals", "count"),
    ("special.erf.calls", "count"),
    ("special.erf_inv.calls", "count"),
    ("special.correction_integral.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.main.cpu_per_wall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

# Counts derived from the inputs of a call rather than timed.
COMPUTED = ("ed.eigensolve_n3_values", "ed.eigensolve_n3_vectors",
            "overlap.table.mode_logs",
            "special.adaptive_simpson.integrand_evals")

LAYERS = ("ed", "overlap", "asymptotics", "special", "cli")

_WEIGHTED_OTHER = ("weighted_renyi", "weighted_von_neumann",
                   "weighted_phi_density")


class _Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end",
                 "cpu0", "cpu1")


class Tracer:
    """Records spans and counts for one benchmark process."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = "setup"
        self._main: list | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []
        self._table_points: dict[int, list] = {}

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, cpu: bool = False) -> _Span:
        sp = _Span()
        st = self._stack()
        with self._lock:
            sp.sid = self._next
            self._next += 1
        sp.name = name
        if st:
            sp.parent = st[-1].sid
        else:  # worker thread: attach to the requesting thread's open span
            main = self._main
            sp.parent = main[-1].sid if main else None
        sp.request = self.request
        sp.cpu0 = time.process_time() if cpu else None
        sp.cpu1 = None
        st.append(sp)
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: _Span) -> None:
        sp.end = time.perf_counter()
        if sp.cpu0 is not None:
            sp.cpu1 = time.process_time()
        self._stack().pop()
        self.spans.append(sp)  # list.append is atomic under the GIL

    def begin_request(self, request_id) -> None:
        """Tag following spans; call on the thread that issues requests."""
        self.request = request_id
        self._main = self._stack()

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name: str, cpu: bool = False, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer.open(name, cpu)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(name, exc)
                raise
            finally:
                tracer.close(sp)
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_error(self, name: str, exc: Exception) -> None:
        """Count an AccuracyError once, in the innermost overlap span it
        leaves; the outer spans it passes through see it marked."""
        if (name.startswith("overlap.") and type(exc).__name__ == "AccuracyError"
                and not getattr(exc, "_traced", False)):
            exc._traced = True
            self.counts["overlap.accuracy_errors"] += 1

    def install(self) -> None:
        from qspan import asymptotics, cli, ed, overlap, special

        def public(mod):
            for name in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(name)
                if inspect.isfunction(obj):
                    yield name, obj

        # ed: dense eigensolves are counted as sum of dim^3 per solve.
        def n3_avg(args, kwargs, out):
            sd = args[0]
            vec = kwargs.get("want_vectors", args[4] if len(args) > 4 else False)
            key = "ed.eigensolve_n3_vectors" if vec else "ed.eigensolve_n3_values"
            self.counts[key] += float(sd.dim) ** 3

        def n3_sd(args, kwargs, out):
            self.counts["ed.eigensolve_n3_vectors"] += float(out.dim) ** 3

        def n3_gs(args, kwargs, out):
            self.counts["ed.eigensolve_n3_vectors"] += float(out.size) ** 3

        ed_hooks = {"averaged_state": n3_avg, "spectral_decomposition": n3_sd,
                    "ground_state": n3_gs}
        for name, fn in public(ed):
            self._patch(ed, name, self._span_wrapper(
                fn, f"ed.{name}", cpu=True, hook=ed_hooks.get(name)))

        for name, fn in public(overlap):
            if name == "moments_quadrature":
                self._patch(overlap, name, self._quadrature_wrapper(fn))
            else:
                self._patch(overlap, name,
                            self._span_wrapper(fn, f"overlap.{name}"))
        self._patch(overlap.DynamicalFreeEnergy, "table",
                    self._table_wrapper(overlap.DynamicalFreeEnergy.table))
        self._patch(overlap, "CubicSpline",
                    self._spline_wrapper(overlap.CubicSpline))

        for name, fn in public(asymptotics):
            self._patch(asymptotics, name,
                        self._span_wrapper(fn, f"asymptotics.{name}"))

        simpson = self._simpson_wrapper(special.adaptive_simpson)
        erf = self._count_wrapper(special.erf, "special.erf.calls")
        erf_inv = self._span_wrapper(special.erf_inv, "special.erf_inv")
        for name, fn in public(special):
            wrapped = {"adaptive_simpson": simpson, "erf": erf,
                       "erf_inv": erf_inv}.get(name)
            self._patch(special, name, wrapped or
                        self._span_wrapper(fn, f"special.{name}"))
        # names bound by consumer modules at import time
        self._patch(ed, "erf_inv", erf_inv)
        for name in ("adaptive_simpson", "erf", "erf_inv",
                     "erf_inv_tail_expansion", "correction_integral"):
            self._patch(asymptotics, name, special.__dict__[name])

        self._patch(cli, "main", self._span_wrapper(cli.main, "cli.main",
                                                     cpu=True))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _quadrature_wrapper(self, fn):
        tracer = self
        grid = self._span_wrapper(fn, "overlap.moments_quadrature.grid")
        mc = self._span_wrapper(fn, "overlap.moments_quadrature.mc")
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            scheme = bound.arguments["scheme"]
            if scheme == "auto":
                scheme = "grid" if bound.arguments["alpha"] <= 3 else "mc"
            return (mc if scheme == "mc" else grid)(*args, **kwargs)
        return wrapper

    def _table_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            sp = tracer.open("overlap.table")
            tracer._local.table_f = f
            try:
                return fn(f, *args, **kwargs)
            finally:
                tracer._local.table_f = None
                tracer.close(sp)
        return wrapper

    def _spline_wrapper(self, cls):
        """A spline built inside `DynamicalFreeEnergy.table` is a table build."""
        tracer = self

        def build(x, y, *args, **kwargs):
            f = getattr(tracer._local, "table_f", None)
            if f is not None:
                tracer._record_table(f, len(x))
            return cls(x, y, *args, **kwargs)
        return build

    def _record_table(self, f, points: int) -> None:
        k_grid = f.metadata.get("k_grid")
        modes = k_grid + (k_grid % 2) + 1 if k_grid else 0
        with self._lock:
            self.counts["overlap.table.builds"] += 1
            self.counts["overlap.table.mode_logs"] += float(points) * modes
            rec = self._table_points.setdefault(id(f), [f, 0, 0])
            rec[1] = max(rec[1], points)
            rec[2] += points

    def _simpson_wrapper(self, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(x):
                counts["special.adaptive_simpson.integrand_evals"] += 1
                return f(x)
            sp = tracer.open("special.adaptive_simpson")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.close(sp)
        return wrapper

    # -- reduction --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and number of spans per span name."""
        children = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append((sp.start, sp.end))
        selfs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sp in self.spans:
            covered = _union_length(children.get(sp.sid, ()), sp.start, sp.end)
            selfs[sp.name] += max(sp.end - sp.start - covered, 0.0)
            calls[sp.name] += 1
        return selfs, calls

    def layer_totals(self, selfs: dict[str, float]) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, val in selfs.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += val
        return out

    def _cpu_per_wall(self, accept) -> float:
        by_id = {sp.sid: sp for sp in self.spans}
        cpu = wall = 0.0
        for sp in self.spans:
            if sp.cpu0 is None or not accept(sp):
                continue
            parent = by_id.get(sp.parent)
            if parent is not None and accept(parent):
                continue  # count only the outermost span of the layer
            cpu += sp.cpu1 - sp.cpu0
            wall += sp.end - sp.start
        return cpu / wall if wall > 0 else 0.0

    def metrics(self, overhead_ratio: float, output_bytes: int) -> dict:
        selfs, calls = self.self_times()
        tables = list(self._table_points.values())
        total_points = sum(t[2] for t in tables)
        useful = sum(t[1] for t in tables) / total_points if total_points else 0.0
        uniform = sum((v for k, v in selfs.items()
                       if k.startswith("asymptotics.")
                       and ".weighted_" not in k and not k.endswith("_weight")),
                      0.0)
        vals = {
            "ed.cpu_per_wall": self._cpu_per_wall(
                lambda sp: sp.name.startswith("ed.")),
            "overlap.table.useful_ratio": useful,
            "asymptotics.weighted_other.self_s": sum(
                selfs.get(f"asymptotics.{n}", 0.0) for n in _WEIGHTED_OTHER),
            "asymptotics.uniform.self_s": uniform,
            "cli.output_bytes": float(output_bytes),
            "cli.main.cpu_per_wall": self._cpu_per_wall(
                lambda sp: sp.name == "cli.main"),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in vals:
                v = vals[name]
            elif name.endswith(".self_s"):
                v = selfs.get(name[:-len(".self_s")], 0.0)
            elif name.endswith(".calls") and name != "special.erf.calls":
                base = name[:-len(".calls")]
                v = float(sum(n for k, n in calls.items()
                              if k == base or k.startswith(base + ".")))
            else:
                v = self.counts.get(name, 0.0)
            out[name] = {"value": v, "unit": unit}
        return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
