"""One factorization path: every sparse direct solve in ``src/calibrix`` goes
through ``mesh_fem._factor``, which factors in SuperLU's symmetric mode, and
the fits it feeds agree with those of a general LU within their tolerances."""

import ast
import pathlib

import numpy as np
import pytest

import calibrix.identify_aao as identify_aao
import calibrix.mesh_fem as mesh_fem
from calibrix.benchmarks import plate_forward_model
from calibrix.identify_aao import aao_fem_solve
from calibrix.identify_reduced import solve_nls
from cases import general_lu

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "calibrix"
SPARSE_SOLVERS = {"splu", "spilu", "spsolve", "factorized"}


def _sparse_solver_calls() -> list:
    """(module, enclosing function, call) for each call of a sparse direct solver."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), None)]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in SPARSE_SOLVERS:
                    out.append((path.stem, scope, node))
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return out


def test_splu_is_called_once_in_symmetric_mode():
    calls = _sparse_solver_calls()
    assert [(module, scope) for module, scope, _ in calls] == [("mesh_fem", "_factor")]
    keywords = {k.arg: ast.literal_eval(k.value) for k in calls[0][2].keywords}
    assert calls[0][2].func.attr == "splu"
    assert keywords == {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                        "options": {"SymmetricMode": True}}


def _fits(plate, data):
    reduced = solve_nls(plate_forward_model(plate), data, np.array([180000.0, 0.35]))
    aao = aao_fem_solve(plate.coarse, plate.part, data)
    return reduced, aao


def test_fits_match_general_lu(monkeypatch, plate_small, plate_small_noisy):
    reduced, aao = _fits(plate_small, plate_small_noisy)
    factored = []

    def factor(M):
        factored.append(M.shape)
        return general_lu(M)

    with monkeypatch.context() as patch:
        patch.setattr(mesh_fem, "_factor", factor)
        patch.setattr(identify_aao, "_factor", factor)
        reduced_lu, aao_lu = _fits(plate_small, plate_small_noisy)
    assert len(factored) >= reduced_lu.n_evals
    assert reduced.converged and reduced_lu.converged
    assert np.all(np.abs(reduced.kappa - reduced_lu.kappa) <= 1e-3 * reduced_lu.std)
    assert aao.converged and aao_lu.converged
    assert aao.E == pytest.approx(aao_lu.E, rel=1e-6)
    assert aao.nu == pytest.approx(aao_lu.nu, rel=1e-6)
