"""Tests for synthetic observation generation and interpolation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from calibrix.errors import DataCoverageError, InterpolationError, WeightingError
from calibrix.meshes import quarter_plate_mesh
from calibrix.synthetic_data import (
    ObservationSet,
    _ElementLocator,
    _inverse_map,
    assemble_data_vector,
    generate_plate_data,
    interpolate_bilinear,
    read_observation_csv,
    solve_elastic_plate,
    write_observation_csv,
)

KAPPA_TRUE = (210000.0, 0.3)


@pytest.fixture(scope="module")
def meshes():
    coarse = quarter_plate_mesh(12, 10)
    fine = quarter_plate_mesh(24, 23, grading=1.3)
    return fine, coarse


class TestInterpolation:
    def test_nodal_values_reproduced(self, meshes):
        fine, _ = meshes
        rng = np.random.default_rng(0)
        u = rng.normal(size=fine.n_dofs)
        picks = rng.choice(fine.n_nodes, size=20, replace=False)
        out = interpolate_bilinear(fine, u, fine.nodes[picks])
        assert_allclose(out[:, 0], u[0::2][picks], rtol=1e-9, atol=1e-12)
        assert_allclose(out[:, 1], u[1::2][picks], rtol=1e-9, atol=1e-12)

    def test_constant_field(self, meshes):
        fine, _ = meshes
        u = np.tile([1.25, -0.5], fine.n_nodes)
        pts = np.array([[4.0, 4.0], [9.9, 0.1], [0.3, 8.0]])
        out = interpolate_bilinear(fine, u, pts)
        assert_allclose(out, np.tile([1.25, -0.5], (3, 1)), rtol=1e-12)

    def test_linear_field_exact(self, meshes):
        fine, _ = meshes
        a, b, c = 0.7, 0.05, -0.02
        u = np.empty(fine.n_dofs)
        u[0::2] = a + b * fine.nodes[:, 0] + c * fine.nodes[:, 1]
        u[1::2] = -a + c * fine.nodes[:, 0] + b * fine.nodes[:, 1]
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(4.0, 9.0, 25), rng.uniform(4.0, 9.0, 25)])
        out = interpolate_bilinear(fine, u, pts)
        assert_allclose(out[:, 0], a + b * pts[:, 0] + c * pts[:, 1], rtol=1e-10)
        assert_allclose(out[:, 1], -a + c * pts[:, 0] + b * pts[:, 1], rtol=1e-10)

    def test_outside_point_raises_with_coordinates(self, meshes):
        fine, _ = meshes
        with pytest.raises(InterpolationError, match="0.5"):
            interpolate_bilinear(fine, np.zeros(fine.n_dofs), [[0.5, 0.5]])  # in the hole

    def test_field_length_checked(self, meshes):
        fine, _ = meshes
        with pytest.raises(DataCoverageError):
            interpolate_bilinear(fine, np.zeros(3), [[5.0, 5.0]])


class OracleLocator:
    """The element locator before its bucket index was vectorized: one
    bucket list per grid cell, every candidate inverse-mapped."""

    def __init__(self, mesh):
        self.mesh = mesh
        coords = mesh.nodes[mesh.elements]
        self.lo = coords.min(axis=(0, 1))
        self.hi = coords.max(axis=(0, 1))
        n = max(1, int(math.sqrt(mesh.n_elements / 2.0)))
        self.shape = (n, n)
        self.cell = (self.hi - self.lo) / np.array(self.shape)
        self.cell[self.cell == 0.0] = 1.0
        self.buckets = {}
        el_lo = coords.min(axis=1)
        el_hi = coords.max(axis=1)
        for e in range(mesh.n_elements):
            i0, j0 = self._cell_of(el_lo[e])
            i1, j1 = self._cell_of(el_hi[e])
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    self.buckets.setdefault((i, j), []).append(e)

    def _cell_of(self, p):
        ij = np.floor((p - self.lo) / self.cell).astype(int)
        return (
            min(max(ij[0], 0), self.shape[0] - 1),
            min(max(ij[1], 0), self.shape[1] - 1),
        )

    def locate(self, p, tol=1e-10):
        best = None
        for e in self.buckets.get(self._cell_of(p), ()):
            ref = _inverse_map(self.mesh.nodes[self.mesh.elements[e]], p, tol)
            if ref is None:
                continue
            margin = max(abs(ref[0]), abs(ref[1]))
            if margin <= 1.0 + 1e-8:
                return e, ref[0], ref[1]
            if best is None or margin < best[0]:
                best = (margin, e, ref)
        if best is not None and best[0] <= 1.0 + 1e-6:
            return best[1], best[2][0], best[2][1]
        raise InterpolationError(f"point ({p[0]}, {p[1]}) is outside the mesh")


def _located(locator, p):
    """(element, xi bits, eta bits), or the error message."""
    try:
        e, xi, eta = locator.locate(p)
    except InterpolationError as exc:
        return str(exc)
    return int(e), np.float64(xi).view(np.int64), np.float64(eta).view(np.int64)


@pytest.fixture(scope="module")
def data_mesh_locators():
    """The plate-reference data mesh, indexed by both locators."""
    fine = quarter_plate_mesh(120, 103, grading=1.3)
    return fine, _ElementLocator(fine), OracleLocator(fine)


@st.composite
def _mesh_points(draw, mesh):
    """A node; a point on an element edge, or off it by up to 1e-6 of its
    length (the mesh boundary's tolerance band); or a point on or just inside
    the hole's arc, which the faceted mesh leaves out."""
    kind = draw(st.sampled_from(("node", "edge", "hole")))
    if kind == "node":
        return mesh.nodes[draw(st.integers(0, mesh.n_nodes - 1))]
    if kind == "edge":
        e = draw(st.integers(0, mesh.n_elements - 1))
        k = draw(st.integers(0, 3))
        t = draw(st.floats(0.0, 1.0))
        off = draw(st.sampled_from((0.0, 1.0))) * draw(st.floats(-2e-6, 2e-6))
        a, b = mesh.nodes[mesh.elements[e, [k, (k + 1) % 4]]]
        return (1.0 - t) * a + t * b + off * np.array([b[1] - a[1], a[0] - b[0]])
    theta = draw(st.floats(0.0, 0.5 * math.pi))
    r = 3.0 * (1.0 - draw(st.sampled_from((0.0, 1.0))) * draw(st.floats(0.0, 1e-4)))
    return np.array([r * math.cos(theta), r * math.sin(theta)])


class TestElementLocator:
    def test_bit_identical_to_oracle_on_measurement_nodes(self, data_mesh_locators):
        fine, locator, oracle = data_mesh_locators
        coarse = quarter_plate_mesh(30, 25)
        assert np.array_equal(locator.candidates,
                              np.concatenate([oracle.buckets.get(divmod(c, locator.n), [])
                                              for c in range(locator.n ** 2)]))
        for p in coarse.nodes:
            assert _located(locator, p) == _located(oracle, p), p

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_oracle_on_nodes_edges_and_hole(self, data_mesh_locators,
                                                              data):
        fine, locator, oracle = data_mesh_locators
        p = data.draw(_mesh_points(fine))
        assert _located(locator, p) == _located(oracle, p), p


class TestDataVector:
    def test_identity_weight(self):
        d, W = assemble_data_vector([(np.arange(4.0), 1.0)])
        assert_allclose(W, 1.0)
        assert_allclose(d, np.arange(4.0))

    def test_two_direction_weights(self):
        u1 = np.array([0.5, -2.0])
        u2 = np.array([0.25, 0.1])
        d, W = assemble_data_vector([(u1, np.abs(u1).max()), (u2, np.abs(u2).max())])
        assert_allclose(W[:2], 1.0 / 2.0)
        assert_allclose(W[2:], 1.0 / 0.25)

    def test_permutation_round_trip(self):
        b1 = (np.array([1.0, 2.0]), 2.0)
        b2 = (np.array([3.0]), 4.0)
        d12, W12 = assemble_data_vector([b1, b2])
        d21, W21 = assemble_data_vector([b2, b1])
        assert_allclose(np.concatenate([d21[1:], d21[:1]]), d12)
        assert_allclose(np.concatenate([W21[1:], W21[:1]]), W12)

    def test_zero_weight_rejected(self):
        with pytest.raises(WeightingError):
            assemble_data_vector([(np.ones(3), 0.0)])
        with pytest.raises(DataCoverageError):
            assemble_data_vector([])


class TestGeneratePlateData:
    def test_clean_data_equals_interpolated_solution(self, meshes):
        fine, coarse = meshes
        data = generate_plate_data(fine, coarse, KAPPA_TRUE, 0.0, seed=11)
        _, u_full, _, resultant = solve_elastic_plate(fine, *KAPPA_TRUE)
        disp = interpolate_bilinear(fine, u_full, coarse.nodes)
        assert_allclose(data.values("u1"), disp[:, 0], rtol=0, atol=0)
        assert_allclose(data.values("u2"), disp[:, 1], rtol=0, atol=0)
        assert_allclose(data.values("F1"), [resultant], rtol=0, atol=0)
        assert data.n_data == 2 * coarse.n_nodes + 1

    def test_seed_determinism(self, meshes):
        fine, coarse = meshes
        a = generate_plate_data(fine, coarse, KAPPA_TRUE, 4e-4, seed=42)
        b = generate_plate_data(fine, coarse, KAPPA_TRUE, 4e-4, seed=42)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.W, b.W)

    def test_signal_independent_of_seed(self, meshes):
        fine, coarse = meshes
        a = generate_plate_data(fine, coarse, KAPPA_TRUE, 2e-4, seed=1)
        b = generate_plate_data(fine, coarse, KAPPA_TRUE, 2e-4, seed=2)
        assert not np.array_equal(a.values("u1"), b.values("u1"))
        assert np.array_equal(a.values("F1"), b.values("F1"))
        diff = a.values("u1") - b.values("u1")
        assert abs(diff.mean()) < 5 * 2e-4 * np.sqrt(2.0 / diff.size)

    def test_noise_statistics(self):
        coarse = quarter_plate_mesh(80, 63, grading=1.2)  # ~1e4 displacement entries
        sigma = 4e-4
        clean = generate_plate_data(coarse, coarse, KAPPA_TRUE, 0.0, seed=0)
        noisy = generate_plate_data(coarse, coarse, KAPPA_TRUE, sigma, seed=3)
        noise = np.concatenate(
            [noisy.values(c) - clean.values(c) for c in ("u1", "u2")]
        )
        n = noise.size
        assert n >= 10_000
        assert abs(noise.mean()) <= 3 * sigma / np.sqrt(n)
        assert abs(noise.std() - sigma) <= 0.05 * sigma

    def test_matched_mesh_interpolation_is_exact(self, meshes):
        _, coarse = meshes
        data = generate_plate_data(coarse, coarse, KAPPA_TRUE, 0.0, seed=0)
        _, u_full, _, _ = solve_elastic_plate(coarse, *KAPPA_TRUE)
        assert_allclose(data.values("u1"), u_full[0::2], rtol=1e-9, atol=1e-14)


class TestCsv:
    def test_round_trip(self, tmp_path, meshes):
        fine, coarse = meshes
        data = generate_plate_data(fine, coarse, KAPPA_TRUE, 2e-4, seed=9)
        path = tmp_path / "plate.csv"
        write_observation_csv(path, data)
        loaded = read_observation_csv(path)
        assert np.array_equal(loaded.d, data.d)
        assert np.array_equal(loaded.W, data.W)
        assert [b.comp for b in loaded.blocks] == [b.comp for b in data.blocks]
        path2 = tmp_path / "plate2.csv"
        write_observation_csv(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,1,1,0,0,u1,0.0,1.0\n")
        with pytest.raises(DataCoverageError, match="header"):
            read_observation_csv(path)

    def test_observation_set_validation(self):
        with pytest.raises(WeightingError):
            ObservationSet(d=np.ones(2), W=np.array([1.0, 0.0]), blocks=())


@pytest.fixture(scope="module")
def csv_lines(tmp_path_factory):
    coarse = quarter_plate_mesh(4, 3)
    data = generate_plate_data(coarse, coarse, KAPPA_TRUE, 2e-4, seed=4)
    path = tmp_path_factory.mktemp("csv") / "valid.csv"
    write_observation_csv(path, data)
    return path, path.read_text().splitlines()


# Letters that cannot spell nan, inf or infinity, so no drawn word parses.
_NOT_A_NUMBER = st.text(alphabet="bcdeghjkmopqrsuvwxz_?", min_size=1, max_size=6)
_NUMERIC_FIELDS = (0, 1, 2, 3, 4, 6, 7)


@st.composite
def _broken_row(draw, n_rows):
    row = draw(st.integers(0, n_rows - 1))
    kind = draw(st.sampled_from(("short", "extra", "text", "weight")))
    if kind == "short":
        edit = draw(st.integers(1, 7))  # fields dropped from the end
    elif kind == "extra":
        edit = draw(st.lists(st.sampled_from(("", "1", "0.5", "u1")), min_size=1, max_size=3))
    elif kind == "text":
        edit = (draw(st.sampled_from(_NUMERIC_FIELDS)), draw(_NOT_A_NUMBER))
    else:
        edit = draw(st.sampled_from(("0.0", "-1.0", "-0.0", "nan")))
    return row, kind, edit


class TestCsvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_broken_row_names_path_and_line(self, csv_lines, data):
        path, lines = csv_lines
        header, rows = lines[0], lines[1:]
        row, kind, edit = data.draw(_broken_row(len(rows)))
        fields = rows[row].split(",")
        if kind == "short":
            fields = fields[:-edit]
        elif kind == "extra":
            fields = fields + edit
        elif kind == "text":
            fields[edit[0]] = edit[1]
        else:
            fields[7] = edit
        broken = path.with_name("broken.csv")
        broken.write_text("\n".join([header] + rows[:row] + [",".join(fields)]
                                     + rows[row + 1:]) + "\n")
        with pytest.raises(DataCoverageError, match=re.escape(f"{broken}:{row + 2}:")):
            read_observation_csv(broken)

    def test_non_utf8_row_names_path_and_line(self, csv_lines):
        path, lines = csv_lines
        broken = path.with_name("latin1.csv")
        broken.write_bytes("\n".join(lines[:3]).encode() + b"\n" + lines[3].encode()[:-4]
                           + b"\xe9\n")
        with pytest.raises(DataCoverageError,
                           match=re.escape(f"{broken}:4: not UTF-8 text (byte 0xe9)")):
            read_observation_csv(broken)

    def test_blank_lines_keep_line_numbers(self, csv_lines):
        path, lines = csv_lines
        broken = path.with_name("blank.csv")
        broken.write_text("\n".join([lines[0], lines[1], "", lines[2][:-4] + ",x"]) + "\n")
        with pytest.raises(DataCoverageError, match=re.escape(f"{broken}:4:")):
            read_observation_csv(broken)
