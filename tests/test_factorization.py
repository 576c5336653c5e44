"""One factorization path on numpy alone: every sparse solve in
``src/calibrix`` factors through ``mesh_fem._factor``, a block-band Cholesky,
and no module imports scipy.  The fits and command outputs it feeds agree
with those of the parent's path, kept here as the oracle: stiffness blocks
assembled by scipy's coo format, AAO's K K^T by scipy's product, and every
factorization by SuperLU in symmetric mode (``cases.symmetric_lu``)."""

import ast
import pathlib
import shutil
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import calibrix.identify_aao as identify_aao
import calibrix.mesh_fem as mesh_fem
from calibrix.benchmarks import plate_forward_model
from calibrix.cli import main
from calibrix.identify_aao import AaoOperators, aao_fem_solve
from calibrix.identify_reduced import solve_nls
from calibrix.materials import c_coords_from_E_nu
from calibrix.mesh_fem import (
    DofPartition,
    Mesh,
    StiffnessDecomposition,
    applied_forces,
    prescribed_values,
    write_mesh_file,
)
from calibrix.meshes import quarter_plate_mesh
from cases import calibrix_csr, general_lu, scipy_csr, symmetric_lu

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "calibrix"
KAPPA_STEEL = np.array(c_coords_from_E_nu(210000.0, 0.3))


def test_no_scipy_and_one_factorization_routine():
    imports, factors = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.stem, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.stem, node.module))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "_factor":
                    factors.append((path.stem, node.name))
    assert [(m, name) for m, name in imports if name.split(".")[0] == "scipy"] == []
    assert factors == [("mesh_fem", "_factor")]


def _fits(plate, data):
    reduced = solve_nls(plate_forward_model(plate), data, np.array([180000.0, 0.35]))
    aao = aao_fem_solve(plate.coarse, plate.part, data)
    return reduced, aao


def test_fits_match_general_lu(monkeypatch, plate_small, plate_small_noisy):
    reduced, aao = _fits(plate_small, plate_small_noisy)
    factored = []

    def factor(M, order, border=0):
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


def test_factorizations_per_fit(monkeypatch, plate_small, plate_small_noisy):
    # Sensitivities come from the factor in hand: AAO factors once at its
    # start and once per trial point, and the reduced fit once per forward
    # evaluation.
    factored = {"aao": 0, "reduced": 0}

    def counting(module, key):
        inner = module._factor

        def factor(*args, **kwargs):
            factored[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, "_factor", factor)

    counting(identify_aao, "aao")
    counting(mesh_fem, "reduced")
    reduced, aao = _fits(plate_small, plate_small_noisy)
    assert factored["aao"] <= 1 + aao.iterations + aao.diagnostics["rejected_steps"]
    assert factored["reduced"] == reduced.n_evals


@pytest.mark.parametrize("n_c, n_r, grading", [(12, 10, 1.5), (30, 25, 1.5), (120, 103, 1.3)],
                         ids=["264-dofs", "1560-dofs", "24960-dofs"])
def test_band_solve_matches_superlu(n_c, n_r, grading):
    mesh = quarter_plate_mesh(n_c, n_r, grading=grading)
    part = DofPartition.from_mesh(mesh)
    stiff = StiffnessDecomposition.from_mesh(mesh, part).stiffness(KAPPA_STEEL)
    rhs = np.random.default_rng(n_c).normal(size=part.n_free)
    x = mesh_fem._factor(stiff.K, stiff.order).solve(rhs)
    oracle = symmetric_lu(stiff.K).solve(rhs)
    assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)


def shuffled(mesh: Mesh, seed: int) -> tuple:
    """The mesh with its node ids permuted at random, and the permutation."""
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)  # new id -> old id
    new_id = np.argsort(perm)
    return Mesh(nodes=mesh.nodes[perm], elements=new_id[mesh.elements],
                thickness=mesh.thickness,
                dirichlet=tuple((int(new_id[n]), c, v) for n, c, v in mesh.dirichlet),
                neumann=tuple((int(new_id[n]), c, v) for n, c, v in mesh.neumann)), perm


def test_shuffled_node_ids_give_the_same_solution_as_fast():
    # A mesh file may number its nodes in any order; the elimination order
    # is computed on the node graph, so a random numbering costs no more
    # than twice the time of the mesh's own.  The two solves alternate, so
    # both see the same load on the host.
    mesh = quarter_plate_mesh(30, 25)
    other, perm = shuffled(mesh, seed=3)
    solves, solutions = [], []
    for m in (mesh, other):
        part = DofPartition.from_mesh(m)
        decomp = StiffnessDecomposition.from_mesh(m, part)
        pbar, ubar = applied_forces(m, part), prescribed_values(m, part)
        u, _ = decomp.solve(KAPPA_STEEL, pbar, ubar)
        solves.append(lambda d=decomp, p=pbar, b=ubar: d.solve(KAPPA_STEEL, p, b))
        solutions.append(part.merge(u, ubar).reshape(-1, 2))
    natural, random_ids = solutions
    assert np.linalg.norm(random_ids - natural[perm]) <= 1e-10 * np.linalg.norm(natural)
    times = [[], []]
    for _ in range(15):
        for solve, spent in zip(solves, times):
            t0 = time.perf_counter()
            solve()
            spent.append(time.perf_counter() - t0)
    assert min(times[1]) <= 2.0 * min(times[0])


# ---------------------------------------------------------------------------
# Command outputs against the parent's path
# ---------------------------------------------------------------------------


def scipy_assembly(mesh, k_all):
    """The global stiffness summed by scipy's coo-to-csr conversion."""
    dofs = mesh._element_dofs
    S = sp.coo_matrix((k_all.ravel(), (np.repeat(dofs, 8, axis=1).ravel(),
                                       np.tile(dofs, (1, 8)).ravel())),
                      shape=(mesh.n_dofs, mesh.n_dofs))
    return calibrix_csr(S.tocsr())


def scipy_kkt(ops, kappa, s=1.0, delta=0.0):
    K = scipy_csr(ops.k_fr(kappa))
    return calibrix_csr(s * (K @ K.T) + delta * sp.identity(K.shape[0]))


def parent_path(mp):
    mp.setattr(mesh_fem, "_assemble_global", scipy_assembly)
    mp.setattr(mesh_fem, "_factor", symmetric_lu)
    mp.setattr(identify_aao, "_factor", symmetric_lu)
    mp.setattr(AaoOperators, "kkt", scipy_kkt)


def _run(directory, commands):
    """Run each (argv, config keys) in ``directory``; {config name: exit code}."""
    codes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        for name, (argv, keys) in commands.items():
            pathlib.Path(f"{name}.cfg").write_text("".join(f"{k} = {v}\n"
                                                           for k, v in keys.items()))
            codes[name] = main([argv[0], "-c", f"{name}.cfg", *argv[1:]])
    return codes


def _values(path) -> dict:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)


PLATE = dict(mesh_file="plate.mesh", data="data.csv")
CALIBRATE = {
    "reduced": (["calibrate", "--method", "reduced"], dict(PLATE, report_out="reduced.txt")),
    "vfm": (["calibrate", "--method", "vfm"], dict(PLATE, report_out="vfm.txt")),
    "aao-fem": (["calibrate", "--method", "aao-fem"], dict(PLATE, report_out="aao.txt")),
    "aao-vfm": (["calibrate", "--method", "aao-vfm"], dict(PLATE, report_out="aao_vfm.txt")),
    "asymptotic": (["uq", "--method", "asymptotic"], dict(PLATE, report_out="asym.txt")),
    "bayes": (["uq", "--method", "bayes"], dict(PLATE, sigma_e=2e-4, walkers=8, steps=10,
                                                seed=3, chain_out="chain.csv",
                                                report_out="bayes.txt")),
    "two-step": (["uq", "--method", "two-step"], dict(seed=0, report_out="two.txt")),
    "hierarchical": (["uq", "--method", "hierarchical"],
                     dict(seed=0, n_outer=2, walkers=6, steps=6, means_out="means.csv",
                          stds_out="stds.csv", report_out="hier.txt")),
}
GENERATE = {"generate": (["generate"], dict(mesh_file="plate.mesh", fine_mesh_file="fine.mesh",
                                            E_true=210000.0, nu_true=0.3, sigma=2e-4, seed=5,
                                            data_out="data.csv", manifest_out="manifest.txt"))}


@pytest.fixture(scope="module")
def both_paths(tmp_path_factory):
    """Each side generates its own data; both calibrate the new side's data."""
    new, old = (tmp_path_factory.mktemp(side) for side in ("new", "old"))
    for d in (new, old):
        write_mesh_file(d / "plate.mesh", quarter_plate_mesh(8, 6))
        write_mesh_file(d / "fine.mesh", quarter_plate_mesh(16, 15, grading=1.3))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="semi-norm")  # aao-vfm's expected warning
        codes = _run(new, {**GENERATE, **CALIBRATE})
        with pytest.MonkeyPatch.context() as mp:
            parent_path(mp)
            codes_old = _run(old, GENERATE)
            shutil.copy(old / "data.csv", old / "data_parent.csv")
            shutil.copy(new / "data.csv", old / "data.csv")
            codes_old.update(_run(old, CALIBRATE))
    assert codes == codes_old == dict.fromkeys(codes, 0)
    return new, old


def test_generated_data_within_rounding(both_paths):
    new, old = both_paths
    assert (new / "manifest.txt").read_bytes() == (old / "manifest.txt").read_bytes()
    a, b = (np.loadtxt(d / f, delimiter=",", skiprows=1, usecols=6)
            for d, f in ((new, "data.csv"), (old, "data_parent.csv")))
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("command, files", [
    ("vfm", ("vfm.txt",)), ("two-step", ("two.txt",)),
    ("hierarchical", ("means.csv", "stds.csv", "hier.txt"))])
def test_outputs_without_sparse_solves_are_byte_identical(both_paths, command, files):
    new, old = both_paths
    for name in files:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def _estimates(report: dict, name: str) -> tuple:
    """(estimate, delta) from "x delta = d ..." or from "x" and "delta_<name> = d"."""
    fields = report[name].split()
    if "delta" in fields:
        return float(fields[0]), float(fields[fields.index("delta") + 2])
    return float(fields[0]), float(report[f"delta_{name}"])


@pytest.mark.parametrize("report", ["reduced.txt", "asym.txt"])
def test_reduced_estimates_within_a_thousandth_of_delta(both_paths, report):
    new, old = (_values(d / report) for d in both_paths)
    for name in ("E", "nu"):
        est, delta = _estimates(new, name)
        est_old, _ = _estimates(old, name)
        assert abs(est - est_old) <= 1e-3 * delta, name


@pytest.mark.parametrize("report", ["aao.txt", "aao_vfm.txt"])
def test_aao_estimates_within_1e_6(both_paths, report):
    new, old = (_values(d / report) for d in both_paths)
    for name in ("E", "nu"):
        assert float(new[name]) == pytest.approx(float(old[name]), rel=1e-6), name


def _chains(both_paths, name="chain.csv"):
    return [np.loadtxt(d / name, delimiter=",", skiprows=1) for d in both_paths]


def test_bayes_chain_within_rounding(both_paths):
    new, old = _chains(both_paths)
    assert np.array_equal(new[:, :4], old[:, :4])  # walker, step, E, nu
    assert np.array_equal(new[:, 5], old[:, 5])  # accepted
    assert np.allclose(new[:, 4], old[:, 4], rtol=1e-10, atol=0.0)


def test_bayes_chains_at_benchmark_size(tmp_path):
    """The plate-bayes op (12 x 10 plate, data from the 24 x 23 mesh, 50
    walkers x 50 steps) at op seeds 1-20: the samples are identical and
    log_post moves within 1e-10 relative."""
    write_mesh_file(tmp_path / "plate.mesh", quarter_plate_mesh(12, 10))
    write_mesh_file(tmp_path / "fine.mesh", quarter_plate_mesh(24, 23, grading=1.3))
    gen = dict(GENERATE["generate"][1], seed=1)
    assert _run(tmp_path, {"generate": (["generate"], gen)}) == {"generate": 0}
    runs = {f"bayes{seed}": (["uq", "--method", "bayes"],
                             dict(PLATE, sigma_e=2e-4, walkers=50, steps=50, seed=seed,
                                  chain_out=f"chain{seed}.csv", report_out="bayes.txt"))
            for seed in range(1, 21)}
    new, old = tmp_path / "new", tmp_path / "old"
    for d in (new, old):
        d.mkdir()
        for f in ("plate.mesh", "data.csv"):
            shutil.copy(tmp_path / f, d / f)
    assert set(_run(new, runs).values()) == {0}
    with pytest.MonkeyPatch.context() as mp:
        parent_path(mp)
        assert set(_run(old, runs).values()) == {0}
    for seed in range(1, 21):
        a, b = _chains((new, old), f"chain{seed}.csv")
        assert np.array_equal(a[:, [0, 1, 2, 3, 5]], b[:, [0, 1, 2, 3, 5]]), seed
        assert np.allclose(a[:, 4], b[:, 4], rtol=1e-10, atol=0.0), seed
