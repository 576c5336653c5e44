"""Tests of the benchmark's own output checks, failure accounting, digest
ledger and trace cross-checks.  Run with ``python3 -m pytest perfbench``."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TRUTH = {"K": 150991.0, "G": 79321.0, "k": 282.6, "b": 41.04, "c": 3499.8}

GOOD_OUTPUTS = {
    "plate-reference": {
        "generate": {"observations.csv": "exp,step\n", "manifest.txt": "seed = 1\n"},
        "calibrate_reduced": {"reduced.txt": (
            "converged = True\nforward_evaluations = 14\nE = 209000.0\nnu = 0.301\n"
            "ci95_E = [1.0, 2.0]\nci95_nu = [0.2, 0.4]\n")},
        "calibrate_vfm": {"vfm.txt": "converged = True\nE = 215000.0\nnu = 0.61\n"},
        "calibrate_aao": {"aao.txt": "converged = True\nE = 210500.0\nnu = 0.299\n"},
        "uq_asymptotic": {"asymptotic.txt": (
            "E = 209000.0 delta = 10.0 ci = [1.0, 2.0]\n"
            "nu = 0.301 delta = 0.001 ci = [0.2, 0.4]\n")},
    },
    "plate-bayes": {
        "uq_bayes": {
            "bayes.txt": "E = 209500.0 delta = 900.0\nnu = 0.302 delta = 0.003\n",
            "chain.csv": "walker,step,E,nu,log_post,accepted\n" + "0,0,1,1,1,1\n" * (
                workloads.BAYES_WALKERS * workloads.BAYES_STEPS),
        },
    },
    "twostep-uq": {
        "uq_twostep": {"twostep.txt": (
            "k = 283.0 Delta = 1.0 delta = 2.0\nb = 41.0 Delta = 1.0 delta = 2.0\n"
            "c = 3500.0 Delta = 10.0 delta = 20.0\nconverged = True\n")},
        "uq_hierarchical": {"hierarchical.txt": (
            "n_failed = 0\nk = 282.0 delta = 1.0\nb = 41.5 delta = 1.0\n"
            "c = 3490.0 delta = 30.0\n")},
    },
}


class FakeRunner:
    """Writes canned outputs instead of starting the CLI."""

    def __init__(self, outputs, exit_codes=None):
        self.outputs = outputs
        self.exit_codes = exit_codes or {}

    def cli(self, cwd, cli_args, stage="setup", trace_out=None):
        for name, text in self.outputs.get(stage, {}).items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        digests = {name: run._sha256(os.path.join(cwd, name))
                   for name in self.outputs.get(stage, {})}
        return run.CommandResult(stage, 0.5, 60.0, self.exit_codes.get(stage, 0),
                                 digests, log=os.path.join(cwd, stage))


def _op(tmp_path, workload, outputs, exit_codes=None):
    wl = workloads.WORKLOADS[workload]
    return run.run_op(FakeRunner(outputs, exit_codes), wl, str(tmp_path), 1, traced=False)


@pytest.mark.parametrize("workload", sorted(GOOD_OUTPUTS))
def test_correct_outputs_pass(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(workloads, "twostep_truth", lambda: TRUTH)
    op = _op(tmp_path, workload, GOOD_OUTPUTS[workload])
    assert op["failures"] == []


def _with(workload, stage, name, text):
    outputs = {s: dict(files) for s, files in GOOD_OUTPUTS[workload].items()}
    outputs[stage][name] = text
    return outputs


@pytest.mark.parametrize("workload, stage, name, text, expected", [
    ("plate-reference", "calibrate_reduced", "reduced.txt",
     "converged = True\nE = 231000.0\nnu = 0.301\nci95_E = [1, 2]\nci95_nu = [0, 1]\n",
     "reduced: E = 231000.0"),
    ("plate-reference", "calibrate_aao", "aao.txt",
     "converged = True\nE = 213000.0\nnu = 0.299\n", "aao-fem: E = 213000.0"),
    ("plate-reference", "uq_asymptotic", "asymptotic.txt",
     "E = 209000.5 delta = 10.0\nnu = 0.301 delta = 0.001\n", "differs from reduced"),
    ("plate-reference", "calibrate_vfm", "vfm.txt", "E = nan\nnu = 0.3\n", "non-finite"),
    ("plate-bayes", "uq_bayes", "bayes.txt",
     "E = 209500.0 delta = 900.0\nnu = 0.33 delta = 0.005\n", "bayes posterior mean: nu = 0.33"),
    ("plate-bayes", "uq_bayes", "bayes.txt",
     "E = 200000.0 delta = 500.0\nnu = 0.3 delta = 0.005\n", "bayes posterior mean: E = 200000"),
    ("plate-bayes", "uq_bayes", "chain.csv", "walker\n0\n", "chain has 1 rows"),
    ("twostep-uq", "uq_twostep", "twostep.txt",
     "k = 300.0 Delta = 1.0 delta = 2.0\nb = 41.0 Delta = 1 delta = 2\n"
     "c = 3500.0 Delta = 1 delta = 20\nconverged = True\n", "two-step: k = 300.0"),
    ("twostep-uq", "uq_hierarchical", "hierarchical.txt",
     "n_failed = 1\nk = 282.0 delta = 1.0\nb = 41.5 delta = 1.0\nc = 3490.0 delta = 30\n",
     "n_failed = 1"),
])
def test_wrong_estimate_fails_op(tmp_path, monkeypatch, workload, stage, name, text, expected):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(workloads, "twostep_truth", lambda: TRUTH)
    op = _op(tmp_path, workload, _with(workload, stage, name, text))
    assert any(expected in f for f in op["failures"]), op["failures"]


def test_nonzero_exit_fails_op_and_stops_chain(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    op = _op(tmp_path, "plate-reference", GOOD_OUTPUTS["plate-reference"],
             exit_codes={"calibrate_reduced": 3})
    assert op["failures"] == ["calibrate_reduced: exit code 3"]
    assert list(op["stage_cpu_s"]) == ["generate", "calibrate_reduced"]


def test_digest_ledger_flags_changed_output(tmp_path):
    path = str(tmp_path / "digests.json")
    ledger = run.DigestLedger(path)
    assert ledger.check("plate-bayes", 1, 2, "in", {"chain.csv": "aa"}) == []
    ledger.save()
    again = run.DigestLedger(path)
    assert again.check("plate-bayes", 1, 2, "in", {"chain.csv": "aa"}) == []
    assert again.check("plate-bayes", 1, 2, "in", {"chain.csv": "bb"}) != []
    assert again.check("plate-bayes", 2, 2, "in", {"chain.csv": "bb"}) == []
    # Other inputs (say, another chain length) are not compared.
    assert again.check("plate-bayes", 1, 2, "other", {"chain.csv": "bb"}) == []


def test_input_hash_follows_op_configs(tmp_path):
    wl = workloads.WORKLOADS["plate-bayes"]
    opdir = tmp_path / "op1"
    opdir.mkdir()
    workloads.write_config(str(tmp_path / "generate.cfg"), {"seed": 1})
    workloads.write_config(str(opdir / "bayes.cfg"), {"steps": 50})
    first = run.input_hash(wl, str(tmp_path), str(opdir))
    assert run.input_hash(wl, str(tmp_path), str(opdir)) == first
    workloads.write_config(str(opdir / "bayes.cfg"), {"steps": 60})
    assert run.input_hash(wl, str(tmp_path), str(opdir)) != first


def _trace(stage, spans, leaves=(), errors=None):
    return {"stage": stage, "startup_s": 0.4, "install_s": 0.01, "exit_code": 0,
            "spans": [["cli.main", -1, 0.0, 2.0, None]] + spans,
            "leaves": list(leaves), "errors": errors or {}}


def test_layer_metrics_from_spans():
    spans = [["identify_reduced.solve_nls", 0, 0.1, 1.1,
              {"iterations": 3, "forward_evals": 2}],
             ["benchmarks.plate_displacements", 1, 0.2, 0.4, None],
             ["benchmarks.plate_displacements", 1, 0.5, 0.6, None],
             ["uq.ensemble_sample", 0, 1.2, 1.8,
              {"acceptance_rate": 0.5, "walkers": 2, "steps": 1}]]
    trace = _trace("calibrate_reduced", spans, leaves=[[4, "uq.log_post", 2, 0.25]],
                   errors={"mesh_fem": 1})
    m = layers.op_metrics([trace])
    assert m["benchmarks.plate_displacements.calls"] == 2
    assert m["benchmarks.plate_displacements.s"] == pytest.approx(0.3)
    assert m["identify_reduced.solve_nls.iterations"] == 3
    assert m["uq.ensemble_sample.self_s"] == pytest.approx(0.35)
    assert m["uq.acceptance_rate"] == 0.5
    assert m["mesh_fem.errors"] == 1
    assert m["cli.startup_s"] == 0.4
    assert set(m) == set(layers.LAYER_METRICS)


def test_cross_check_counts_forward_evaluations_and_chain_calls():
    spans = [["identify_reduced.solve_nls", 0, 0.1, 1.1,
              {"iterations": 3, "forward_evals": 3}],
             ["benchmarks.plate_displacements", 1, 0.2, 0.4, None],
             ["uq.ensemble_sample", 0, 1.2, 1.8,
              {"acceptance_rate": 0.5, "walkers": 2, "steps": 1}]]
    trace = _trace("calibrate_reduced", spans, leaves=[[3, "uq.log_post", 5, 0.25]])
    metrics = layers.op_metrics([trace])
    fail = layers.cross_check("plate-reference", [trace], metrics,
                              {"calibrate_reduced": {"forward_evaluations": "3"}})
    assert any("solve_nls reports 3" in f for f in fail)
    assert any("the report says forward_evaluations = 3" in f for f in fail)
    assert any("more than walkers x (steps + 1) = 4" in f for f in fail)
    assert any("uq.ensemble_sample.calls = 1.0 but the layer should be idle" in f
               for f in fail)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "twostep-uq", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_twostep_truth_read_from_source(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    truth = workloads.twostep_truth()
    assert set(truth) == {"K", "G", "k", "b", "c"}
    assert "numpy" not in sys.modules or "calibrix.benchmarks" not in sys.modules
