"""End-to-end tests of the command-line pipeline."""

import ast
import math
import os
import subprocess
import sys

import pytest

import calibrix
from calibrix.cli import main
from calibrix.errors import DivergenceError
from calibrix.meshes import quarter_plate_mesh
from calibrix.mesh_fem import write_mesh_file


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    write_mesh_file(path / "plate.mesh", quarter_plate_mesh(8, 6))
    write_mesh_file(path / "plate_fine.mesh", quarter_plate_mesh(16, 15, grading=1.3))
    return path


def write_config(path, name, **keys):
    cfg = path / name
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(cfg)


@pytest.fixture(scope="module")
def generated(workdir):
    cfg = write_config(
        workdir, "gen.cfg",
        mesh_file=str(workdir / "plate.mesh"),
        fine_mesh_file=str(workdir / "plate_fine.mesh"),
        E_true=210000.0, nu_true=0.3, load=1500.0, sigma=2e-4, seed=42,
        data_out=str(workdir / "data.csv"),
        manifest_out=str(workdir / "manifest.txt"),
    )
    assert main(["generate", "-c", cfg]) == 0
    return cfg


class TestGenerate:
    def test_deterministic_output(self, workdir, generated):
        first = (workdir / "data.csv").read_bytes()
        assert main(["generate", "-c", generated]) == 0
        assert (workdir / "data.csv").read_bytes() == first

    def test_seed_changes_data_not_manifest_shape(self, workdir):
        outputs = {}
        for seed in (42, 43):
            cfg = write_config(
                workdir, f"gen{seed}.cfg",
                mesh_file=str(workdir / "plate.mesh"),
                E_true=210000.0, nu_true=0.3, sigma=4e-4, seed=seed,
                data_out=str(workdir / f"data{seed}.csv"),
                manifest_out=str(workdir / f"manifest{seed}.txt"),
            )
            assert main(["generate", "-c", cfg]) == 0
            outputs[seed] = ((workdir / f"data{seed}.csv").read_text(),
                             (workdir / f"manifest{seed}.txt").read_text())
        assert outputs[42][0] != outputs[43][0]
        m42 = [l for l in outputs[42][1].splitlines()
               if not l.startswith(("seed", "config_hash", "data_out"))]
        m43 = [l for l in outputs[43][1].splitlines()
               if not l.startswith(("seed", "config_hash", "data_out"))]
        assert m42 == m43

    def test_missing_mesh_exits_2(self, workdir, capsys):
        cfg = write_config(workdir, "bad.cfg", mesh_file=str(workdir / "nope.mesh"),
                           E_true=210000.0, nu_true=0.3)
        assert main(["generate", "-c", cfg]) == 2
        assert "nope.mesh" in capsys.readouterr().err

    def test_env_seed_fallback(self, workdir, monkeypatch):
        cfg = write_config(
            workdir, "genenv.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            E_true=210000.0, nu_true=0.3, sigma=4e-4,
            data_out=str(workdir / "data_env.csv"),
            manifest_out=str(workdir / "manifest_env.txt"),
        )
        monkeypatch.setenv("CALIBRIX_SEED", "42")
        assert main(["generate", "-c", cfg]) == 0
        assert "seed = 42" in (workdir / "manifest_env.txt").read_text()


class TestCalibrate:
    def test_reduced(self, workdir, generated):
        cfg = write_config(
            workdir, "cal.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            report_out=str(workdir / "cal_reduced.txt"),
        )
        assert main(["calibrate", "-c", cfg, "--method", "reduced"]) == 0
        report = (workdir / "cal_reduced.txt").read_text()
        assert "E = " in report and "delta_E = " in report
        E = float([l for l in report.splitlines() if l.startswith("E = ")][0][4:])
        assert abs(E - 210000.0) < 0.05 * 210000.0
        assert "config_hash = " in report

    def test_vfm_single_solve(self, workdir, generated):
        cfg = write_config(
            workdir, "calv.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            report_out=str(workdir / "cal_vfm.txt"),
        )
        assert main(["calibrate", "-c", cfg, "--method", "vfm"]) == 0
        report = (workdir / "cal_vfm.txt").read_text()
        assert "iterations" not in report  # direct solve, no iteration log
        assert "residual_norm = " in report

    def test_aao_fem_echoes_weights(self, workdir, generated):
        cfg = write_config(
            workdir, "cala.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            report_out=str(workdir / "cal_aao.txt"),
        )
        assert main(["calibrate", "-c", cfg, "--method", "aao-fem"]) == 0
        report = (workdir / "cal_aao.txt").read_text()
        assert "sigma_s = 1.0" in report
        assert "sigma_d = 1e-05" in report

    def test_unknown_method_exits_2(self, workdir, generated):
        cfg = write_config(
            workdir, "calx.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            method="wobble",
        )
        assert main(["calibrate", "-c", cfg]) == 2

    def test_malformed_data_row_exits_2(self, workdir, generated, capsys):
        lines = (workdir / "data.csv").read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:5])  # a short row
        (workdir / "short.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(
            workdir, "calshort.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "short.csv"),
            report_out=str(workdir / "cal_short.txt"),
        )
        assert main(["calibrate", "-c", cfg, "--method", "vfm"]) == 2
        assert "short.csv:4: expected 8 fields, got 5" in capsys.readouterr().err

    def test_unidentifiable_data_exits_2(self, workdir, generated, capsys):
        # Zero displacements probe no deformation mode: an ill-posed input,
        # reported like a config error rather than as non-convergence.
        rows = (workdir / "data.csv").read_text().splitlines()
        for i, row in enumerate(rows[1:], start=1):
            fields = row.split(",")
            if fields[5] in ("u1", "u2"):
                fields[6] = "0.0"
                rows[i] = ",".join(fields)
        (workdir / "still.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(
            workdir, "calstill.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "still.csv"),
            report_out=str(workdir / "cal_still.txt"),
        )
        assert main(["calibrate", "-c", cfg, "--method", "vfm"]) == 2
        assert "rank deficient" in capsys.readouterr().err

    def test_divergence_exits_3(self, workdir, generated, monkeypatch, capsys):
        import calibrix.identify_reduced as identify_reduced

        def diverge(*args, **kwargs):
            raise DivergenceError("Landweber iterate is not finite")

        monkeypatch.setattr(identify_reduced, "landweber_reduced", diverge)
        cfg = write_config(
            workdir, "calw.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            report_out=str(workdir / "cal_landweber.txt"),
        )
        assert main(["calibrate", "-c", cfg, "--method", "landweber-reduced"]) == 3
        assert "Landweber iterate is not finite" in capsys.readouterr().err


class TestUq:
    def test_asymptotic_report(self, workdir, generated):
        cfg = write_config(
            workdir, "uqa.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            report_out=str(workdir / "uq_asym.txt"),
        )
        assert main(["uq", "-c", cfg, "--method", "asymptotic"]) == 0
        report = (workdir / "uq_asym.txt").read_text()
        assert "delta" in report and "ci = [" in report

    def test_two_step_report_columns(self, workdir):
        cfg = write_config(
            workdir, "uqt.cfg", seed=0,
            report_out=str(workdir / "uq_two.txt"),
        )
        assert main(["uq", "-c", cfg, "--method", "two-step"]) == 0
        report = (workdir / "uq_two.txt").read_text()
        for name in ("K", "G", "k", "b", "c"):
            assert f"{name} = " in report
        assert "Delta = " in report and "delta = " in report

    def test_two_step_matches_secant_path(self, tmp_path, monkeypatch):
        # The closed-form return map moves the plastic estimates by far less
        # than their reported uncertainty: within 1e-3 of each delta of the
        # run with the secant path that it replaced for eta = 0.
        import calibrix.benchmarks as benchmarks
        from oracle_uniaxial import uniaxial_secant_driver

        def estimates(name):
            cfg = write_config(tmp_path, f"{name}.cfg", seed=0, report_out=f"{name}.txt")
            assert main(["uq", "-c", cfg, "--method", "two-step"]) == 0
            out = {}
            for line in (tmp_path / f"{name}.txt").read_text().splitlines():
                words = line.split()
                if words and words[0] in ("k", "b", "c"):
                    out[words[0]] = (float(words[2]), float(words[-1]))
            return out

        monkeypatch.chdir(tmp_path)
        closed = estimates("closed")
        monkeypatch.setattr(benchmarks, "uniaxial_plastic_driver", uniaxial_secant_driver)
        secant = estimates("secant")
        assert sorted(closed) == ["b", "c", "k"] and closed != secant
        for name, (value, delta) in secant.items():
            assert abs(closed[name][0] - value) <= 1e-3 * delta

    def test_bayes_chain_csv(self, workdir, generated):
        cfg = write_config(
            workdir, "uqb.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            sigma_e=2e-4, walkers=8, steps=20, seed=3,
            chain_out=str(workdir / "chain.csv"),
            report_out=str(workdir / "uq_bayes.txt"),
        )
        assert main(["uq", "-c", cfg, "--method", "bayes"]) == 0
        chain = (workdir / "chain.csv").read_text().splitlines()
        assert chain[0] == "walker,step,E,nu,log_post,accepted"
        assert len(chain) == 1 + 8 * 20

    def test_bayes_negative_prior_nu_samples_its_box(self, workdir, generated):
        cfg = write_config(
            workdir, "uqb_auxetic.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "data.csv"),
            sigma_e=2e-4, walkers=8, steps=5, seed=3, prior_nu=-0.3,
            chain_out=str(workdir / "chain_auxetic.csv"),
            report_out=str(workdir / "uq_auxetic.txt"),
        )
        assert main(["uq", "-c", cfg, "--method", "bayes"]) == 0
        rows = (workdir / "chain_auxetic.csv").read_text().splitlines()[1:]
        nu = [float(row.split(",")[3]) for row in rows]
        assert len(nu) == 8 * 5 and all(-0.3 * 1.1 <= v <= -0.3 * 0.9 for v in nu)

    def test_hierarchical_smoke(self, workdir):
        cfg = write_config(
            workdir, "uqh.cfg", seed=0, n_outer=3, walkers=8, steps=20,
            means_out=str(workdir / "means.csv"),
            stds_out=str(workdir / "stds.csv"),
            report_out=str(workdir / "uq_hier.txt"),
        )
        assert main(["uq", "-c", cfg, "--method", "hierarchical"]) == 0
        means = (workdir / "means.csv").read_text().splitlines()
        assert means[0] == "draw,k,b,c"
        assert len(means) == 1 + 3

    def test_hierarchical_jobs_above_draws_match_one_job(self, tmp_path, monkeypatch):
        # --jobs 3 at n_outer = 2 runs two worker processes and writes the
        # bytes that the in-process run writes.  One config with relative
        # output paths, run in two directories, keeps the config hash equal.
        names = ("means.csv", "stds.csv", "uq.txt")
        cfg = write_config(tmp_path, "uqh.cfg", seed=0, n_outer=2, walkers=8, steps=10,
                           means_out=names[0], stds_out=names[1], report_out=names[2])
        outputs = []
        for jobs in ("1", "3"):
            (tmp_path / jobs).mkdir()
            monkeypatch.chdir(tmp_path / jobs)
            assert main(["uq", "-c", cfg, "--method", "hierarchical", "--jobs", jobs]) == 0
            outputs.append([(tmp_path / jobs / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]

    def test_hierarchical_all_chains_failed_exits_3(self, tmp_path, monkeypatch, capsys):
        import calibrix.benchmarks as benchmarks
        from calibrix.errors import NumericalError

        def no_posterior(self, kappa_e):
            raise NumericalError("no conditional posterior")

        monkeypatch.setattr(benchmarks.PlasticLogPosterior, "__call__", no_posterior)
        cfg = write_config(
            tmp_path, "uqh.cfg", seed=0, n_outer=2, walkers=8, steps=10,
            means_out=str(tmp_path / "means.csv"), stds_out=str(tmp_path / "stds.csv"),
            report_out=str(tmp_path / "uq.txt"),
        )
        with pytest.warns(UserWarning, match="inner chain failed"):
            assert main(["uq", "-c", cfg, "--method", "hierarchical"]) == 3
        assert capsys.readouterr().err == (
            "error: all 2 inner chains failed; the first, at draw 0: "
            "no conditional posterior\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["uqh.cfg"]

    @pytest.mark.parametrize("method, keys, flags, message", [
        ("hierarchical", dict(n_outer=0), [],
         "error: need at least one outer draw, got n_outer=0"),
        ("hierarchical", dict(steps=0), [], "error: need at least one step, got 0"),
        ("hierarchical", {}, ["--jobs", "0"], "error: need at least one job, got jobs=0"),
        ("hierarchical", {}, ["--jobs", "-3"], "error: need at least one job, got jobs=-3"),
        ("bayes", dict(steps=0), [], "error: need at least one step, got 0"),
        ("bayes", dict(sigma_e=0), [],
         "config error: sigma_e must be positive and finite, got 0.0"),
        ("bayes", dict(sigma_e=-2e-4), [],
         "config error: sigma_e must be positive and finite, got -0.0002"),
        ("bayes", dict(sigma_e="nan"), [],
         "config error: sigma_e must be positive and finite, got nan"),
        ("bayes", dict(prior_variation=-0.1), [],
         "config error: prior_variation must lie in (0, 1), got -0.1"),
        ("bayes", dict(prior_variation=1.0), [],
         "config error: prior_variation must lie in (0, 1), got 1.0"),
        ("bayes", dict(prior_E=-210000), [],
         "config error: prior_E must be positive and finite, got -210000.0"),
        ("bayes", dict(prior_nu=0.6), [],
         "config error: prior_nu must lie in (-1, 0.5), got 0.6"),
        ("bayes", dict(prior_nu=0), [],
         "config error: prior box for nu must have positive width, got prior_nu=0.0"),
        ("bayes", dict(prior_nu=0.45, prior_variation=0.2), [],
         "config error: prior box for nu, [0.36, 0.54], must lie in (-1, 0.5)"),
        ("bayes", dict(prior_nu=-0.9, prior_variation=0.2), [],
         "config error: prior box for nu, [-1.08, -0.72], must lie in (-1, 0.5)"),
    ], ids=["n_outer=0", "steps=0", "jobs=0", "jobs=-3", "bayes-steps=0", "sigma_e=0",
            "sigma_e<0", "sigma_e=nan", "prior_variation<0", "prior_variation=1",
            "prior_E<0", "prior_nu=0.6", "prior_nu=0", "prior_nu=0.45", "prior_nu=-0.9"])
    def test_empty_sampler_run_exits_2(self, workdir, generated, capsys,
                                       method, keys, flags, message):
        report = workdir / "uq_empty.txt"
        report.unlink(missing_ok=True)
        cfg = write_config(
            workdir, "uq_empty.cfg", **(dict(
                seed=0, n_outer=2, walkers=8, steps=10,
                mesh_file=str(workdir / "plate.mesh"), data=str(workdir / "data.csv"),
                sigma_e=2e-4, chain_out=str(workdir / "uq_empty.csv"),
                report_out=str(report)) | keys),
        )
        assert main(["uq", "-c", cfg, "--method", method, *flags]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not report.exists()

    def test_missing_data_artifact_exits_2(self, workdir, capsys):
        cfg = write_config(
            workdir, "uqm.cfg",
            mesh_file=str(workdir / "plate.mesh"),
            data=str(workdir / "missing.csv"),
        )
        assert main(["uq", "-c", cfg, "--method", "asymptotic"]) == 2
        assert "missing.csv" in capsys.readouterr().err


class TestReportAndDeterminism:
    def test_report_prints(self, workdir, generated, capsys):
        assert main(["report", str(workdir / "manifest.txt")]) == 0
        assert "calibrix data manifest" in capsys.readouterr().out
        assert main(["report", str(workdir / "no-such-file")]) == 2

    def test_report_of_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"config error: cannot read {tmp_path}: "
                                           "Is a directory\n")

    def test_report_of_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# calibrix uq report\nk = 1.0 \xe9\n")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr() == ("", f"config error: {path}:2: not UTF-8 text "
                                           "(byte 0xe9)\n")

    def test_full_pipeline_byte_identical(self, workdir, tmp_path):
        files = {}
        for run in ("a", "b"):
            gen = write_config(
                workdir, f"det_gen_{run}.cfg",
                mesh_file=str(workdir / "plate.mesh"),
                E_true=210000.0, nu_true=0.3, sigma=2e-4, seed=11,
                data_out=str(tmp_path / f"{run}_data.csv"),
                manifest_out=str(tmp_path / f"{run}_manifest.txt"),
            )
            assert main(["generate", "-c", gen]) == 0
            cal = write_config(
                workdir, f"det_cal_{run}.cfg",
                mesh_file=str(workdir / "plate.mesh"),
                data=str(tmp_path / f"{run}_data.csv"),
                report_out=str(tmp_path / f"{run}_cal.txt"),
            )
            assert main(["calibrate", "-c", cal, "--method", "reduced"]) == 0
            files[run] = [
                (tmp_path / f"{run}_data.csv").read_bytes(),
                (tmp_path / f"{run}_cal.txt").read_bytes(),
            ]
        assert files["a"][0] == files["b"][0]
        # Reports differ only in the config hash line (paths differ); compare
        # the numeric content.
        a_lines = files["a"][1].decode().splitlines()
        b_lines = files["b"][1].decode().splitlines()
        strip = lambda ls: [l for l in ls if not l.startswith("config_hash")]
        assert strip(a_lines) == strip(b_lines)


def _python(args, cwd):
    """Run a fresh interpreter on the calibrix sources under test."""
    src = os.path.dirname(os.path.dirname(calibrix.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _loaded_after(script, cwd, names) -> list:
    """Modules named in ``names``, or inside them, that a fresh interpreter
    holds after running ``script``."""
    script += ("\nimport sys\n"
               f"print(sorted(m for m in sys.modules\n"
               f"             if any(m == n or m.startswith(n + '.') for n in {names!r})))\n")
    out = _python(["-c", script], cwd)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


def _run_commands(runs) -> str:
    """Script that runs each (argv, exit code) through ``main``, in order."""
    return ("import sys\n"
            "from calibrix.cli import main\n"
            f"for argv, code in {runs!r}:\n"
            "    if main(argv) != code:\n"
            "        sys.exit(f'{argv} did not exit {code}')\n")


def test_point_model_commands_load_no_sparse_stack(tmp_path):
    """uq two-step, uq hierarchical and report import numpy, not scipy."""
    write_config(tmp_path, "two.cfg", seed=0, report_out="two.txt")
    write_config(tmp_path, "hier.cfg", seed=0, n_outer=1, walkers=6, steps=4,
                 elastic_samples=20, means_out="means.csv", stds_out="stds.csv",
                 report_out="hier.txt")
    runs = [(["uq", "-c", "two.cfg", "--method", "two-step"], 0),
            (["uq", "-c", "hier.cfg", "--method", "hierarchical", "--jobs", "1"], 0),
            (["report", "two.txt"], 0)]
    loaded = _loaded_after(_run_commands(runs), tmp_path,
                           ("scipy", "concurrent.futures.process"))
    assert loaded == []


@pytest.mark.parametrize("method, sparse", [("vfm", False), ("reduced", True),
                                            ("bayes", True)])
def test_calibrate_loads_scipy_only_to_factor(workdir, generated, tmp_path, method, sparse):
    """The mesh files, the CSV reader and the VFM solve run on numpy alone.

    ``reduced`` factors K, and shows that the check can see scipy at all.
    ``uq --method bayes`` builds the sparse stiffness blocks but factors
    nothing: it solves through the pencil spectrum.
    """
    write_config(tmp_path, "cal.cfg", mesh_file=workdir / "plate.mesh",
                 data=workdir / "data.csv", report_out="cal.txt",
                 sigma_e=2e-4, walkers=8, steps=10, chain_out="chain.csv")
    script = ("from calibrix.meshes import quarter_plate_mesh\n"
              "from calibrix.mesh_fem import read_mesh_file, write_mesh_file\n"
              "write_mesh_file('q.mesh', quarter_plate_mesh(4, 3))\n"
              "assert read_mesh_file('q.mesh').n_elements == 12\n")
    command = "uq" if method == "bayes" else "calibrate"
    script += _run_commands([([command, "-c", "cal.cfg", "--method", method], 0)])
    loaded = _loaded_after(script, tmp_path, ("scipy",))
    if sparse:
        assert "scipy.sparse" in loaded
        assert ("scipy.sparse.linalg" in loaded) == (method == "reduced")
    else:
        assert loaded == []
    assert f"method = {method}" in (tmp_path / "cal.txt").read_text()


def test_version_help_report_and_config_errors_load_no_numpy(workdir, generated, tmp_path):
    script = ("from calibrix.cli import main\n"
              "for argv in (['--version'], ['--help']):\n"
              "    try:\n"
              "        main(argv)\n"
              "    except SystemExit as exc:\n"
              "        assert exc.code == 0, exc.code\n")
    script += _run_commands([(["report", str(workdir / "manifest.txt")], 0),
                             (["calibrate", "-c", "missing.cfg"], 2)])
    assert _loaded_after(script, tmp_path, ("numpy", "scipy")) == []


def test_first_factorization_reports_condition_estimate(tmp_path):
    """A fresh process whose first factorization is singular still estimates kappa(K)."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from calibrix.errors import SolverError\n"
        "from calibrix.meshes import quarter_plate_mesh\n"
        "from calibrix.mesh_fem import (DofPartition, applied_forces, assemble_stiffness,\n"
        "                               prescribed_values, solve_linear)\n"
        "mesh = quarter_plate_mesh(4, 3)\n"
        "part = DofPartition.from_mesh(mesh)\n"
        "C = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # C11 = C12\n"
        "stiff = assemble_stiffness(mesh, part, C)\n"
        "assert 'scipy.sparse.linalg' not in sys.modules\n"
        "try:\n"
        "    solve_linear(stiff, applied_forces(mesh, part), prescribed_values(mesh, part))\n"
        "except SolverError as exc:\n"
        "    print(exc)\n"
    )
    out = _python(["-c", script], tmp_path)
    assert out.returncode == 0, out.stderr
    message = out.stdout.strip()
    assert message.startswith("linear solve inaccurate"), message
    estimate = float(message.rsplit(" ", 1)[1])
    assert math.isfinite(estimate) and estimate > 1e12


def test_non_utf8_config_exits_2(tmp_path):
    """A config file that is not UTF-8 ends in a typed error and exit 2."""
    (tmp_path / "bad.cfg").write_bytes(b"seed = 0\nreport_out = \xff.txt\n")
    out = _python(["-m", "calibrix.cli", "uq", "-c", "bad.cfg", "--method", "two-step"],
                  tmp_path)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "config error: bad.cfg:2: not UTF-8 text (byte 0xff)\n"


def test_non_utf8_mesh_exits_2(workdir, capsys):
    mesh = workdir / "latin1.mesh"
    mesh.write_bytes((workdir / "plate.mesh").read_bytes() + b"# \xe9l\xe9ment\n")
    cfg = write_config(workdir, "latin1.cfg", mesh_file=str(mesh), E_true=210000.0,
                       nu_true=0.3, data_out=str(workdir / "latin1.csv"))
    n_lines = len((workdir / "plate.mesh").read_bytes().splitlines())
    assert main(["generate", "-c", cfg]) == 2
    assert f"{mesh}:{n_lines + 1}: not UTF-8 text (byte 0xe9)" in capsys.readouterr().err
