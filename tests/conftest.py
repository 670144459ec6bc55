import math

import numpy as np
import pytest

from qspan import ed


@pytest.fixture
def report(capsys):
    """Print a pass/fail line straight to the terminal (bypassing capture)."""
    def _report(tag: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return _report


def random_chain(L: int, seed: int, scale: float = 0.4,
                 boundary: str = "open") -> ed.PauliHamiltonian:
    """Random nearest-neighbour chain with modest couplings."""
    rng = np.random.default_rng(seed)
    terms = []
    bonds = [(l, l + 1) for l in range(L - 1)]
    if boundary == "periodic" and L > 2:
        bonds.append((L - 1, 0))
    for a, b in bonds:
        for p in ("X", "Y", "Z"):
            terms.append((scale * float(rng.uniform(-1, 1)),
                          ((a, p), (b, p))))
    for l in range(L):
        terms.append((scale * float(rng.uniform(-1, 1)), ((l, "X"),)))
        terms.append((scale * float(rng.uniform(-1, 1)), ((l, "Z"),)))
    return ed.PauliHamiltonian(L=L, terms=tuple(terms), boundary=boundary)


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture(scope="session")
def chaotic_12():
    """Shared L = 12 system: the dominant eigensolve of the whole suite,
    with the Krylov decomposition that criteria 6 and 7 read (t <= 4)."""
    spec = ed.chaotic_chain(12)
    psi0 = ed.ground_state(ed.chaotic_initial_chain(12))
    sd = ed.spectral_decomposition(spec, psi0)
    return {"spec": spec, "psi0": psi0, "sd": sd,
            "krylov": ed.krylov_decomposition(spec, psi0, 4.0)}


@pytest.fixture(scope="session")
def strong_quench_f():
    """Free energy of the strong-field quench (h: inf -> 1.5), shared."""
    from qspan import overlap
    quench = overlap.IsingQuench(h_i=math.inf, h_f=1.5, J=1.0, k_grid=4096)
    return overlap.DynamicalFreeEnergy.from_ising(quench)
