"""Command outputs of the element-by-element equilibrium map against the
three forms it replaced.

A_S used to be computed by VFM from Gauss-point strains
(``oracle_fem.parameter_matrices_from_strains``), by AAO as matrix-vector
products of its row-reduced sparse blocks (``row_block_a_cols``) and by
``StiffnessDecomposition`` from blocks assembled one basis matrix at a time
(``blocks_by_assembly``).  With those restored, every command that does not
use A_S writes the same bytes; aao-fem moves only in its objective and its
first-order residuals; VFM and aao-vfm move by rounding.
"""

import warnings

import numpy as np
import pytest

import calibrix.mesh_fem as mesh_fem
from calibrix.cli import main
from calibrix.identify_aao import AaoOperators
from calibrix.meshes import quarter_plate_mesh
from calibrix.mesh_fem import (
    StiffnessDecomposition,
    _C_BASIS,
    assemble_stiffness,
    write_mesh_file,
)
from oracle_fem import parameter_matrices_from_strains


def row_block_a_cols(ops, u):
    """A(u, ubar) from the row-reduced blocks, one sparse product per term."""
    return np.column_stack([ops.K_fr[0].matvec(u) + ops.Kbar_fr[0].matvec(ops.ubar),
                            ops.K_fr[1].matvec(u) + ops.Kbar_fr[1].matvec(ops.ubar)])


def blocks_by_assembly(cls, mesh, part):
    """A decomposition whose blocks come from one full assembly per basis matrix."""
    return cls(mesh=mesh, part=part,
               blocks=tuple(assemble_stiffness(mesh, part, C) for C in _C_BASIS))


PLATE = dict(mesh_file="plate.mesh", data="data.csv")
COMMANDS = {
    "generate": (["generate"], dict(mesh_file="plate.mesh", fine_mesh_file="fine.mesh",
                                    E_true=210000.0, nu_true=0.3, sigma=2e-4, seed=5,
                                    data_out="data.csv", manifest_out="manifest.txt"),
                 ("data.csv", "manifest.txt")),
    "reduced": (["calibrate", "--method", "reduced"], dict(PLATE, report_out="reduced.txt"),
                ("reduced.txt",)),
    "vfm": (["calibrate", "--method", "vfm"], dict(PLATE, report_out="vfm.txt"), ("vfm.txt",)),
    "aao-fem": (["calibrate", "--method", "aao-fem"], dict(PLATE, report_out="aao.txt"),
                ("aao.txt",)),
    "aao-vfm": (["calibrate", "--method", "aao-vfm"], dict(PLATE, report_out="aao_vfm.txt"),
                ("aao_vfm.txt",)),
    "asymptotic": (["uq", "--method", "asymptotic"], dict(PLATE, report_out="asym.txt"),
                   ("asym.txt",)),
    "bayes": (["uq", "--method", "bayes"], dict(PLATE, sigma_e=2e-4, walkers=8, steps=10,
                                                seed=3, chain_out="chain.csv",
                                                report_out="bayes.txt"),
              ("chain.csv", "bayes.txt")),
    "two-step": (["uq", "--method", "two-step"], dict(seed=0, report_out="two.txt"),
                 ("two.txt",)),
    "hierarchical": (["uq", "--method", "hierarchical"],
                     dict(seed=0, n_outer=2, walkers=6, steps=6, means_out="means.csv",
                          stds_out="stds.csv", report_out="hier.txt"),
                     ("means.csv", "stds.csv", "hier.txt")),
}


def _run_commands(directory, monkeypatch) -> dict:
    """{command: {output file: bytes}} for the whole chain, run in ``directory``."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    write_mesh_file("plate.mesh", quarter_plate_mesh(8, 6))
    write_mesh_file("fine.mesh", quarter_plate_mesh(16, 15, grading=1.3))
    out = {}
    for name, (argv, keys, files) in COMMANDS.items():
        cfg = directory / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main([argv[0], "-c", cfg.name, *argv[1:]]) == 0, name
        out[name] = {f: (directory / f).read_bytes() for f in files}
    return out


def _values(report: bytes) -> dict:
    return dict(line.split(" = ", 1) for line in report.decode().splitlines()
                if " = " in line)


@pytest.fixture(scope="module")
def both_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("epoch")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="semi-norm")  # aao-vfm's expected warning
        with pytest.MonkeyPatch.context() as mp:
            new = _run_commands(tmp / "new", mp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesh_fem, "assemble_parameter_matrices", parameter_matrices_from_strains)
            mp.setattr(AaoOperators, "a_cols", row_block_a_cols)
            mp.setattr(StiffnessDecomposition, "from_mesh", classmethod(blocks_by_assembly))
            old = _run_commands(tmp / "old", mp)
    return new, old


@pytest.mark.parametrize("command", ["generate", "reduced", "asymptotic", "bayes", "two-step",
                                     "hierarchical"])
def test_outputs_without_the_map_are_byte_identical(both_paths, command):
    new, old = both_paths
    assert new[command] == old[command]


def test_aao_fem_moves_only_in_objective_and_residuals(both_paths):
    new, old = (_values(side["aao-fem"]["aao.txt"]) for side in both_paths)
    assert new.keys() == old.keys()
    for key in new.keys() - {"objective", "foc_kappa", "foc_state"}:
        assert new[key] == old[key], key
    assert float(new["objective"]) == pytest.approx(float(old["objective"]), rel=1e-10)
    for key in ("foc_kappa", "foc_state"):
        assert abs(float(new[key]) - float(old[key])) <= 1e-12, key


@pytest.mark.parametrize("command, keys", [
    ("vfm", ("E", "nu", "C11", "C12", "residual_norm")),
    ("aao-vfm", ("E", "nu", "C11", "C12", "objective")),
])
def test_vfm_estimates_within_rounding(both_paths, command, keys):
    new, old = (_values(next(iter(side[command].values()))) for side in both_paths)
    for key in keys:
        assert float(new[key]) == pytest.approx(float(old[key]), rel=1e-10), key
