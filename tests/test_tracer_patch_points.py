"""The benchmark tracer (`perfbench/tracing.py`) patches package names from
outside: every public function, `DynamicalFreeEnergy.table`, the
`CubicSpline` that `overlap` binds, and names such as `erf` that
`asymptotics` binds only so that they can be patched. Deleting or renaming
one breaks traced benchmark runs; this test notices it in the unit suite."""

import importlib.util
import math
from pathlib import Path

import pytest

from qspan import ed, overlap

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch_point(tracing):
    f = overlap.DynamicalFreeEnergy.from_ising(
        overlap.IsingQuench(h_i=math.inf, h_f=1.5, k_grid=64))
    sd = ed.spectral_decomposition(ed.integrable_chain(4),
                                   ed.polarized_state(4, "x"))
    tr = tracing.Tracer()
    try:
        tr.install()
        saved = list(tr._saved)
        overlap.moments_quadrature(f, 100, 1, 0.3, 2)
        ed.averaged_state(sd, 0.0, 1.0)
        ed.krylov_decomposition(ed.integrable_chain(4),
                                ed.polarized_state(4, "x"), 1.0)
        ed.ground_state(ed.chaotic_initial_chain(4))
    finally:
        tr.uninstall()
    assert saved
    for owner, attr, orig in saved:
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr}"
    _, calls = tr.self_times()
    assert calls["overlap.moments_quadrature.grid"] == 1
    assert calls["ed.averaged_state"] == 1
    # booked to ed, not to the caller's self time
    assert calls["ed.krylov_decomposition"] == 1
    assert calls["ed.ground_state"] == 1
    assert calls["overlap.table"] >= 1
