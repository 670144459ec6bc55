import filecmp
import json
import math

import numpy as np
import pytest

from qspan.asymptotics import CumulantSeries, pi_universal, support_edge
from qspan.cli import bundled_config, main


def run_ok(args):
    rc = main(args)
    assert rc == 0
    return rc


# an L = 4 ed system; the [grid] section is left open for its t line
ED_SMALL = ("[system]\nmodel = integrable\nL = 4\ninitial = polarized_z\n"
            "[grid]\n")
ISING_SMALL = ("[quench]\nh_i = inf\nh_f = 1.5\nk_grid = 64\n"
               "[window]\nt = 0.3\n[grid]\nL = 36\nalpha = 2\n")


def read_rows(path):
    lines = path.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    cols = header.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines
            if line and not line.startswith("#") and line != header]
    return cols, rows


class TestBundledConfigs:
    @pytest.mark.parametrize("verb,name", [
        ("asymptotics", "asymptotics_scan.cfg"),
        ("distribution", "distribution_curve.cfg"),
        ("rank", "rank_sweep.cfg"),
        ("ed", "ed_toy.cfg"),
    ])
    def test_round_trip_byte_identical(self, tmp_path, verb, name):
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        cfg = str(bundled_config(name))
        run_ok([verb, "--config", cfg, "--out", str(out1)])
        run_ok([verb, "--config", cfg, "--out", str(out2)])
        assert filecmp.cmp(out1, out2, shallow=False)

    def test_schema_lines_pinned(self, tmp_path):
        out = tmp_path / "a.csv"
        run_ok(["asymptotics", "--config",
                str(bundled_config("asymptotics_scan.cfg")),
                "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: qspan-asymptotics-v1"
        assert lines[2] == "L,t,alpha,moment,S_alpha,S_vN,D,lambda_cut"


class TestAsymptoticsVerb:
    def test_minimal_single_row(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("[cumulants]\ne2 = 1.0\n[grid]\nL = 100\nt = 1.0\n"
                       "alpha = 2\n[rank]\nepsilon = 0.15\n")
        out = tmp_path / "one.csv"
        run_ok(["asymptotics", "--config", str(cfg), "--out", str(out)])
        cols, rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["moment"]) == pytest.approx(
            math.sqrt(math.pi) / 10.0, rel=1e-12)

    def test_rank_sweep_monotone_in_eps(self, tmp_path):
        out = tmp_path / "r.csv"
        run_ok(["rank", "--config", str(bundled_config("rank_sweep.cfg")),
                "--out", str(out)])
        _, rows = read_rows(out)
        dims = [float(r["D"]) for r in rows]
        assert all(b < a for a, b in zip(dims, dims[1:]))
        sliced = [float(r["D_timesliced"]) for r in rows]
        assert all(s >= d for s, d in zip(sliced, dims))

    def test_distribution_matches_library(self, tmp_path):
        out = tmp_path / "d.csv"
        run_ok(["distribution", "--config",
                str(bundled_config("distribution_curve.cfg")),
                "--out", str(out)])
        _, rows = read_rows(out)
        cs = CumulantSeries(e=(0.0, 1.0), L=100, d=1)
        for r in rows[:20]:
            x = float(r["x"])
            assert float(r["pi"]) == pytest.approx(pi_universal(x), rel=1e-12)
            assert float(r["lambda"]) == pytest.approx(
                x * support_edge(cs, 1.0), rel=1e-12)


class TestIsingVerb:
    def _config(self, tmp_path, h_i="inf", extra=""):
        cfg = tmp_path / "ising.cfg"
        cfg.write_text(
            f"[quench]\nh_i = {h_i}\nh_f = 1.5\nJ = 1.0\nk_grid = 256\n"
            "[window]\nt = 0.3\n[grid]\nL = 36 100\nalpha = 2 3\n"
            "[quadrature]\nscheme = grid\n"
            "[samples]\nt = 0.0 0.1 0.2\n" + extra)
        return cfg

    def test_runs_and_is_deterministic(self, tmp_path):
        cfg = self._config(tmp_path)
        out1 = tmp_path / "i1.csv"
        out2 = tmp_path / "i2.csv"
        run_ok(["ising", "--config", str(cfg), "--out", str(out1),
                "--seed", "7"])
        run_ok(["ising", "--config", str(cfg), "--out", str(out2),
                "--seed", "7"])
        assert filecmp.cmp(out1, out2, shallow=False)
        assert (tmp_path / "i1_f.csv").exists()
        _, rows = read_rows(out1)
        assert len(rows) == 4
        gaps = {(int(r["L"]), int(float(r["alpha"]))):
                abs(float(r["S_quadrature"])
                    - float(r["S_prediction_corrected"])) for r in rows}
        for alpha in (2, 3):
            # finite-size gap to the corrected prediction shrinks with L
            assert gaps[(100, alpha)] < gaps[(36, alpha)]

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = self._config(tmp_path)
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        run_ok(["ising", "--config", str(cfg), "--out", str(out1)])
        run_ok(["ising", "--config", str(cfg), "--out", str(out2),
                "--threads", "3"])
        assert filecmp.cmp(out1, out2, shallow=False)

    def test_no_quench_sentinel(self, tmp_path):
        cfg = self._config(tmp_path, h_i="1.5")
        out = tmp_path / "nq.csv"
        run_ok(["ising", "--config", str(cfg), "--out", str(out)])
        _, rows = read_rows(out)
        for r in rows:
            assert float(r["moment"]) == 1.0
            assert r["S_quadrature"] == "nan"

    def test_minus_infinite_initial_field(self, tmp_path):
        f_rows = {}
        for h_i in ("-inf", "-1e8"):
            out = tmp_path / f"h{h_i}.csv"
            run_ok(["ising", "--config", str(self._config(tmp_path, h_i=h_i)),
                    "--out", str(out)])
            f_csv = tmp_path / f"h{h_i}_f.csv"
            assert f"# h_i: {float(h_i)!r}" in f_csv.read_text().splitlines()
            f_rows[h_i] = [float(r["im_f"]) for r in read_rows(f_csv)[1]]
        assert f_rows["-inf"] == pytest.approx(f_rows["-1e8"], abs=1e-7)
        assert min(f_rows["-inf"]) < -0.1

    def test_huge_initial_field_matches_infinite(self, tmp_path):
        s = {}
        for h_i in ("inf", "1e200"):
            out = tmp_path / f"h{h_i}.csv"
            run_ok(["ising", "--config", str(self._config(tmp_path, h_i=h_i)),
                    "--out", str(out)])
            s[h_i] = [float(r["S_quadrature"]) for r in read_rows(out)[1]]
        assert s["1e200"] == pytest.approx(s["inf"], rel=0, abs=1e-15)

    def test_huge_final_field_is_an_accuracy_failure(self, tmp_path):
        # eps_k ~ 2e200: f is finite, but its curvature at the origin (e2)
        # cannot be resolved, which is an exit 3, not a traceback
        cfg = self._config(tmp_path, h_i="0.5")
        cfg.write_text(cfg.read_text().replace("h_f = 1.5", "h_f = 1e200"))
        rc = main(["ising", "--config", str(cfg), "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 3

    def test_accuracy_exit_code(self, tmp_path):
        cfg = self._config(tmp_path,
                           extra="")
        cfg.write_text(cfg.read_text().replace("scheme = grid",
                                               "scheme = mc\nrtol = 1e-13"))
        rc = main(["ising", "--config", str(cfg), "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 3

    def test_unknown_scheme_exit_code(self, tmp_path):
        cfg = self._config(tmp_path)
        cfg.write_text(cfg.read_text().replace("scheme = grid",
                                               "scheme = simpson"))
        rc = main(["ising", "--config", str(cfg), "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2


class TestEdVerb:
    def test_toy_output_against_brute_force(self, tmp_path):
        out = tmp_path / "toy.csv"
        run_ok(["ed", "--config", str(bundled_config("ed_toy.cfg")),
                "--out", str(out)])
        cols, rows = read_rows(out)
        # independent 4-dimensional reconstruction of the same protocol
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        eye = np.eye(2)
        h = (np.kron(sx, sx) + 0.5 * np.kron(sz, eye)
             + 0.5 * np.kron(eye, sz) + 0.25 * np.kron(sy, eye))
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        evals, evecs = np.linalg.eigh(h)
        c = evecs.conj().T @ psi0
        mean = float(np.sum(np.abs(c) ** 2 * evals))
        var = float(np.sum(np.abs(c) ** 2 * evals ** 2)) - mean ** 2
        assert float(rows[0]["e2"]) == pytest.approx(var / 2.0, rel=1e-10)
        for r in rows:
            t = float(r["t"])
            slices = 20000
            taus = (np.arange(slices) + 0.5) * t / slices
            states = evecs @ (c[:, None] * np.exp(-1j * np.outer(evals, taus)))
            rho = (states @ states.conj().T) / slices
            lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
            eps = 0.3 / math.sqrt(1.0 + 10.0 * t)
            tail = 1.0 - np.cumsum(lam)
            d_brute = int(np.argmax(tail <= eps + 1e-9) + 1)
            assert int(r["D"]) == d_brute
        proj = tmp_path / "toy_proj.csv"
        assert proj.exists()
        _, prows = read_rows(proj)
        errs = [float(r["error"]) for r in prows]
        assert all(0.0 <= e <= 1.0 for e in errs)

    def test_integrable_model_small(self, tmp_path):
        cfg = tmp_path / "int.cfg"
        cfg.write_text("[system]\nmodel = integrable\nL = 4\n"
                       "initial = polarized_z\n[grid]\nt = 0.5 1.0\n")
        out = tmp_path / "int.csv"
        run_ok(["ed", "--config", str(cfg), "--out", str(out)])
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert all(int(r["D"]) >= 1 for r in rows)

    def test_chaotic_tables_match_dense_route(self, tmp_path):
        from qspan import ed
        cfg = tmp_path / "chaotic.cfg"
        cfg.write_text("[system]\nmodel = chaotic\nL = 10\nJ = 1.1\n"
                       "boundary = open\n[schedule]\neps0 = 0.15\n"
                       "rate = 80\n[grid]\nt = 0.5 1.0 2.0 3.0 3.5\n"
                       "[projection]\nT = 1.5 4.0\npoints = 40\n")
        out = tmp_path / "chaotic.csv"
        run_ok(["ed", "--config", str(cfg), "--out", str(out)])
        _, rows = read_rows(out)
        _, prows = read_rows(tmp_path / "chaotic_proj.csv")

        spec = ed.chaotic_chain(10, J=1.1, boundary="open")
        psi0 = ed.ground_state(ed.chaotic_initial_chain(10, J=1.1,
                                                        boundary="open"))
        sd = ed.spectral_decomposition(spec, psi0)

        def schedule(t):
            return 0.15 / math.sqrt(1.0 + 80.0 * t)

        curve = ed.rank_curve(spec, psi0, schedule, [0.5, 1.0, 2.0, 3.0, 3.5],
                              sd=sd)
        assert [int(r["D"]) for r in rows] == curve.dims.tolist()
        for r, pred in zip(rows, curve.prediction_per_sqrt_l):
            assert float(r["prediction_per_sqrt_L"]) == pytest.approx(
                pred, rel=1e-12)
            assert float(r["e2"]) == pytest.approx(curve.e2, rel=1e-12)
        for i, T in enumerate((1.5, 4.0)):
            res = ed.projection_error(sd, T, schedule(T),
                                      np.linspace(0.0, T, 41))
            block = prows[41 * i:41 * (i + 1)]
            assert {int(r["D"]) for r in block} == {res.D}
            for name in ("error", "band_low", "band_high"):
                got = np.array([float(r[name]) for r in block])
                assert np.abs(got - getattr(res, name)).max() <= 1e-12

    def test_file_model_via_cli(self, tmp_path):
        ham = tmp_path / "c.ham"
        ham.write_text("L=3\nboundary=open\n1.0 X@0 X@1\n1.0 X@1 X@2\n"
                       "0.7 Z@0\n0.7 Z@1\n0.7 Z@2\n")
        cfg = tmp_path / "ed.cfg"
        cfg.write_text("[system]\nmodel = file\nhamiltonian_file = c.ham\n"
                       "initial = polarized_x\n[grid]\nt = 1.0\n")
        out = tmp_path / "ed.csv"
        run_ok(["ed", "--config", str(cfg), "--out", str(out)])
        _, rows = read_rows(out)
        assert rows[0]["L"] == "3"


class TestFormatsAndErrors:
    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        run_ok(["rank", "--config", str(bundled_config("rank_sweep.cfg")),
                "--out", str(out), "--format", "json"])
        doc = json.loads(out.read_text())
        assert doc["schema"] == "qspan-rank-v1"
        assert doc["columns"][0] == "eps"
        assert len(doc["rows"]) == 7

    @pytest.mark.parametrize("body", [
        "[cumulants]\ne2 = 1.0\n[grid]\nL = 300 100\nt = 1.0\nalpha = 2\n"
        "[rank]\nepsilon = 0.1\n",                      # unsorted L
        "[cumulants]\ne2 = 1.0\n[grid]\nL = 100\nt = 1.0\nalpha = 2\n",
        "[cumulants]\ne2 = oops\n[grid]\nL = 100\nt = 1.0\nalpha = 2\n"
        "[rank]\nepsilon = 0.1\n",                      # bad number
        "[cumulants]\ne2 = -1.0\n[grid]\nL = 100\nt = 1.0\nalpha = 2\n"
        "[rank]\nepsilon = 0.1\n",                      # invalid e2
    ])
    def test_config_errors_exit_2(self, tmp_path, body):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        rc = main(["asymptotics", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("verb, body, where", [
        ("ed", ED_SMALL + "t = 1.0\n[projection]\nT = 1.0\npoints = -3\n",
         "[projection] points"),
        ("ed", ED_SMALL + "t = 1.0\n[schedule]\nrate = -1\n",
         "[schedule] rate"),
        ("ed", ED_SMALL + "t = 1.0\n[schedule]\neps0 = 1.5\n",
         "[schedule] eps0"),
        ("ed", ED_SMALL + "t = 1.0\n[projection]\nT = 0.0\n",
         "[projection] T"),
        ("ed", ED_SMALL + "t = 1.0\n[projection]\nT = inf\n",
         "[projection] T"),
        ("ed", ED_SMALL + "t = -1.0 1.0\n", "[grid] t"),
        ("ed", ED_SMALL + "t = 1.0 inf\n", "[grid] t"),
        ("ed", ED_SMALL + "t =\n", "[grid] t"),
        ("distribution", "[cumulants]\ne2 = 1.0\n[system]\nL = 100\n"
         "[window]\nt = 1.0\n[grid]\npoints = -2\n", "[grid] points"),
        ("asymptotics", "[cumulants]\ne2 = 1.0\n[grid]\nL = 100\n"
         "t = -1.0 1.0\nalpha = 2\n[rank]\nepsilon = 0.1\n", "[grid] t"),
        ("distribution", "[cumulants]\ne2 = 1.0\n[system]\nL = 100\n"
         "[window]\nt = 0.0\n", "[window] t"),
        ("rank", "[cumulants]\ne2 = 1.0\n[system]\nL = 100\n"
         "[window]\nt = -1.0\n[sweep]\nepsilon = 0.1\n", "[window] t"),
        ("rank", "[cumulants]\ne2 = 1.0\n[system]\nL = 100\n"
         "[window]\nt = 1.0\n[sweep]\nepsilon = 0.1\ndelta_t = -0.5\n",
         "[sweep] delta_t"),
        ("ising", ISING_SMALL.replace("h_i = inf", "h_i = 1.5")
         .replace("t = 0.3", "t = -0.5"), "[window] t"),
        ("ising", ISING_SMALL + "[quadrature]\nrtol = -0.01\n",
         "[quadrature] rtol"),
        ("ising", ISING_SMALL + "[quadrature]\nrtol = nan\n",
         "[quadrature] rtol"),
        ("ising", ISING_SMALL.replace("alpha = 2", "alpha = 2 5"),
         "[grid] alpha"),
        ("ising", ISING_SMALL.replace("L = 36", "L = 0 36"), "[grid] L"),
        ("ising", ISING_SMALL.replace("L = 36", "L = nan"), "[grid] L"),
        ("ising", ISING_SMALL.replace("k_grid", "J = nan\nk_grid"),
         "[quench] J"),
        ("ising", ISING_SMALL.replace("h_f = 1.5", "h_f = nan"),
         "[quench] h_f"),
        ("ising", ISING_SMALL.replace("h_i = inf", "h_i = nan"),
         "[quench] h_i"),
        ("ising", ISING_SMALL + "[quadrature]\nscheme = simpson\n",
         "[quadrature] scheme"),
        ("ising", ISING_SMALL.replace("h_i = inf", "h_i = 1.5")
         + "[quadrature]\nscheme = simpson\n", "[quadrature] scheme"),
        ("ed", ED_SMALL.replace("L = 4", "L = 4\nJ = nan") + "t = 1.0\n",
         "[system]"),
        ("ed", ED_SMALL.replace("L = 4", "L = 4\nJ = inf") + "t = 1.0\n",
         "[system]"),
        ("ed", "[system]\nmodel = chaotic\nL = 4\nJ = nan\n[grid]\n"
         "t = 1.0\n", "[system]"),
        ("ed", "[system]\nmodel = chaotic\nL = 4\nJ = inf\n[grid]\n"
         "t = 1.0\n", "[system]"),
        ("asymptotics", "[cumulants]\ne2 = nan\n[grid]\nL = 100\n"
         "t = 1.0\nalpha = 2\n[rank]\nepsilon = 0.1\n", "[cumulants]"),
        ("rank", "[cumulants]\ne2 = inf\n[system]\nL = 100\n"
         "[window]\nt = 1.0\n[sweep]\nepsilon = 0.1\n", "[cumulants]"),
        ("asymptotics", "[cumulants]\ne2 = 1.0\n[grid]\nL = 100\n"
         "t = 1.0\nalpha = nan\n[rank]\nepsilon = 0.1\n", "[grid] alpha"),
        ("asymptotics", "[cumulants]\ne2 = 1.0\n[grid]\nL = 100\n"
         "t = 1.0\nalpha = 2 inf\n[rank]\nepsilon = 0.1\n",
         "[grid] alpha"),
        ("asymptotics", "[cumulants]\ne2 = 1.0\n[grid]\nL = 100\n"
         "t = 1.0\nalpha = 0\n[rank]\nepsilon = 0.1\n", "[grid] alpha"),
    ], ids=["ed-points", "rate", "eps0", "T", "T-inf", "ed-t", "ed-t-inf",
            "ed-no-t",
            "distribution-points",
            "asymptotics-t", "distribution-t", "rank-t", "rank-delta_t",
            "ising-t", "ising-rtol", "ising-rtol-nan", "ising-alpha",
            "ising-L", "ising-L-nan", "ising-J-nan", "ising-h_f-nan",
            "ising-h_i-nan", "ising-scheme", "ising-scheme-no-quench",
            "ed-integrable-J-nan", "ed-integrable-J-inf", "ed-chaotic-J-nan",
            "ed-chaotic-J-inf", "asymptotics-e2-nan", "rank-e2-inf",
            "asymptotics-alpha-nan", "asymptotics-alpha-inf",
            "asymptotics-alpha-zero"])
    def test_out_of_range_numbers_name_their_field(self, tmp_path, capsys,
                                                   verb, body, where):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        rc = main([verb, "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and where in err

    def test_missing_config_exit_2(self, tmp_path):
        rc = main(["asymptotics", "--config", str(tmp_path / "none.cfg"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
