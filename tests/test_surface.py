import dataclasses
import json

import numpy as np
import pytest

from pencil_lab import surface
from pencil_lab.cli import main
from pencil_lab.entries import dense, with_zeros
from pencil_lab.grids import Chart, deriv, eval_grid, max_abs
from pencil_lab.march import (MarchError, PoleError, Unknown, shift,
                              solve_compatible)
from pencil_lab.surface import (
    SurfaceModel, constant_curvature_check,
    lax_residuals_3x3_2x2, mesh_nontriviality, pc_residual,
    reconstruct_family, seed_surface_model, solve_codazzi,
    weingarten_family_compare,
)

SHIFTS = (0.0, 0.5, 1.0)


def _family(model, curv, shifts=SHIFTS):
    """The meshes of reconstruct_family at each of ``shifts``."""
    return [reconstruct_family(model, curv, lam)[2] for lam in shifts]


def _residuals(H1, H2, b12, b21, eta1, eta2, chart, lam):
    """lax_residuals_3x3_2x2 of the two connections at the shift lam."""
    s1, s2 = shift(lam, (eta1, eta2))
    return lax_residuals_3x3_2x2(surface._lax_mats(H1, H2, b12, b21, s1, s2),
                                 chart)


@pytest.fixture(scope="module")
def seed():
    return seed_surface_model()


@pytest.fixture(scope="module")
def radii(seed):
    G11, G22 = seed.shifted_form(0.0)
    return solve_codazzi(G11, G22, "2+2*R1", "2.5", seed.chart)


@pytest.fixture(scope="module")
def family(seed, radii):
    return _family(seed, radii)


def test_seed_validates_cleanly(seed):
    assert seed.validate() == []


def test_validate_flags_broken_inputs():
    ch = Chart(2, ((0.5, 1.5), (0.0, 1.0)), (17, 17))
    bad = SurfaceModel.from_text("1", "R1^2", "5-R1^2+3*R2^2", "1+R2^2", ch)
    assert any("eta1" in p for p in bad.validate())
    curved = SurfaceModel.from_text("1", "sin(R1)^2", "1", "1", ch)
    assert any("not flat" in p for p in curved.validate())


def test_shifted_forms_have_unit_curvature(seed):
    assert all(constant_curvature_check(seed, lam) < 1e-12 for lam in SHIFTS)


def test_sphere_metric_reports_shift_as_deviation():
    # with eta = 1 the shifted form scales the round metric by 1/(1+lam),
    # so its curvature is 1 + lam and the deviation equals lam exactly
    ch = Chart(2, ((0.5, 1.5), (0.0, 1.0)), (17, 17))
    model = SurfaceModel.from_text("1", "sin(R1)^2", "1", "1", ch)
    for lam in (0.0, 0.25, 0.5):
        dev = constant_curvature_check(model, lam)
        assert dev == pytest.approx(lam, abs=1e-10)


def test_curvature_check_rejects_pole(seed):
    with pytest.raises(MarchError):
        constant_curvature_check(seed, -6.0)


def _full(ch, value):
    return np.full(ch.shape, value)


def test_transport_residual_trivial_case():
    # G11 = G22 = 1: both log-derivatives vanish
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    zero = _full(ch, 0.0)
    assert pc_residual(_full(ch, 2.0), _full(ch, 3.0), zero, zero, ch) < 1e-12


def test_transport_residual_umbilic_guard():
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    zero = _full(ch, 0.0)
    with pytest.raises(MarchError, match="umbilic point inside the grid"):
        pc_residual(_full(ch, 2.0), _full(ch, 2.0), zero, zero, ch)


def test_codazzi_residual_is_pc_residual_on_its_grids(seed, radii):
    # solve_codazzi reports pc_residual of the grids it marched with
    G11, G22 = seed.shifted_form(0.0)
    L1 = surface._log_deriv(G11, 1, seed.chart)
    L2 = surface._log_deriv(G22, 0, seed.chart)
    want = pc_residual(radii.k1, radii.k2, L1, L2, seed.chart)
    assert np.float64(radii.pc).tobytes() == np.float64(want).tobytes()


def test_umbilic_k_lines_fail_the_run(tmp_path, capsys):
    # k1 = 2 + 2 R1 and k2 = 3 meet at the corner R1 = 0.5: an umbilic point
    cfg = {"chart": {"n": 2, "box": [[0.5, 1.5], [0.0, 1.0]],
                     "shape": [17, 17]},
           "surface": {"g11": "1", "g22": "R1^2", "eta1": "5-R1^2",
                       "eta2": "1+R2^2", "k1_line": "2+2*R1", "k2_line": "3"},
           "lambdas": [0.0, 1.0]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["deform-surface", "--config", str(path), "--out",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "run failed: umbilic point inside the grid\n"
    assert not out.exists()


def test_codazzi_solution_matches_closed_form(seed, radii):
    # with the seed forms the transport equations are solved exactly by the
    # polynomial radii k1 = 2 + 2 R1, k2 = 2 + R1
    R1 = seed.chart.mesh()[0]
    assert np.max(np.abs(radii.k1 - (2 + 2 * R1))) < 1e-10
    assert np.max(np.abs(radii.k2 - (2 + R1))) < 1e-10
    assert radii.pc < 1e-10


def test_codazzi_rejects_inconsistent_boundary(seed):
    G11, G22 = seed.shifted_form(0.0)
    for k1_line, k2_line in (("2+2*R1+R2", "2.5"), ("2+2*R1", "2.5+R1")):
        with pytest.raises(MarchError):
            solve_codazzi(G11, G22, k1_line, k2_line, seed.chart)


def test_lax_residuals_small_and_consistent(seed):
    R1 = seed.chart.mesh()[0]
    ones = np.ones(seed.chart.shape)
    for lam in SHIFTS:
        r3, r2 = _residuals(ones, R1, ones, _full(seed.chart, 0.0),
                            *seed.eta_grids, seed.chart, lam)
        assert r3 < 1e-5
        assert r2 < 1e-5
        # the two formulations agree on the verdict within a small factor
        assert 0.1 < (r3 + 1e-14) / (r2 + 1e-14) < 10.0


def test_lax_residuals_zero_fields(seed):
    zero = _full(seed.chart, 0.0)
    assert _residuals(zero, zero, zero, zero, _full(seed.chart, 2.0),
                      _full(seed.chart, 4.0), seed.chart, 0.0) == (0.0, 0.0)


def test_lax_residuals_pole(seed):
    with pytest.raises(MarchError):
        _residuals(np.ones(seed.chart.shape), seed.chart.mesh()[0],
                   np.ones(seed.chart.shape), _full(seed.chart, 0.0),
                   *seed.eta_grids, seed.chart, -10.0)


def test_reconstruction_rejects_vanishing_radii(seed):
    # radii that vanish on the grid are refused once, after the march: with
    # the seed forms k1 keeps its boundary line "0" across the chart
    G11, G22 = seed.shifted_form(0.0)
    with pytest.raises(MarchError, match="^k1 vanishes on the grid; the "
                       "position vector equation degenerates$"):
        solve_codazzi(G11, G22, "0", "2.5", seed.chart)


def test_family_mesh_invariants(seed, radii, family):
    assert len(family) == 3
    core = (slice(2, -2),) * 2
    inv_sorted = np.sort(np.stack([1.0 / radii.k1, 1.0 / radii.k2],
                                  axis=-1), axis=-1)
    for mesh in family:
        assert mesh.normal_unit_drift() < 1e-5
        assert mesh.excluded == 0
        assert np.max(np.abs(mesh.eigenvalues[core]
                             - inv_sorted[core])) < 1e-4
        drift = float(mesh.notes[0].split("=")[1])
        assert drift < 1e-4


def test_shifts_share_one_evaluation_of_the_coefficients(radii,
                                                         monkeypatch):
    model = seed_surface_model()
    calls = []

    def counting(e, chart):
        calls.append(e)
        return eval_grid(e, chart)

    monkeypatch.setattr(surface, "eval_grid", counting)
    for lam in SHIFTS:
        reconstruct_family(model, radii, lam)
    assert len(calls) == 6


def test_family_preserves_weingarten(seed, family):
    rep = weingarten_family_compare(family)
    assert rep["eigenvalue_deviation"] < 1e-3
    assert rep["misalignment_angle"] < 1e-2


def test_family_members_are_distinct_shapes(family):
    d = mesh_nontriviality(family[0], family[-1])
    assert d > 1e-3
    assert mesh_nontriviality(family[0], family[0]) < 1e-12


def test_broken_eta_fails_weingarten_control():
    # making eta1 depend on the transverse coordinate destroys the family:
    # the curvature-1 property and the shape-operator match both fail
    ch = Chart(2, ((0.5, 1.5), (0.0, 1.0)), (33, 33))
    bad = SurfaceModel.from_text("1", "R1^2", "5-R1^2+3*R2^2", "1+R2^2", ch)
    assert max(constant_curvature_check(bad, lam) for lam in (0.0, 1.0)) \
        > 1e-4
    G11, G22 = bad.shifted_form(0.0)
    curv = solve_codazzi(G11, G22, "2+2*R1", "2.5", ch)
    meshes = _family(bad, curv, (0.0, 1.0))
    comp = weingarten_family_compare(meshes)
    assert comp["misalignment_angle"] > 1e-1


def test_compare_needs_two_meshes(seed, family):
    with pytest.raises(ValueError):
        weingarten_family_compare(family[:1])


def test_every_pole_guard_raises_pole_error(seed, radii):
    with pytest.raises(PoleError):
        constant_curvature_check(seed, -6.0)
    with pytest.raises(PoleError):
        reconstruct_family(seed, radii, -6.0)
    one, zero = _full(seed.chart, 1.0), _full(seed.chart, 0.0)
    with pytest.raises(PoleError):
        _residuals(one, one, one, zero, *seed.eta_grids, seed.chart, -10.0)


def _family_by_scalar_unknowns(model, curv, lam):
    """Reference: one scalar unknown per frame entry, then one scalar
    unknown per vertex coordinate solved to its fixed point."""
    ch = model.chart
    H1, H2, b12, b21 = (eval_grid(e, ch) for e in model.lame_beta())
    s1 = lam + eval_grid(model.eta1, ch)
    s2 = lam + eval_grid(model.eta2, ch)
    mats = [dense(M, (3, 3) + ch.shape)
            for M in surface._lax_mats(H1, H2, b12, b21, s1, s2)[:2]]

    def entry(a, b, d):
        return lambda st, i: (mats[d][a, 0][i] * st[f"F0{b}"][i]
                              + mats[d][a, 1][i] * st[f"F1{b}"][i]
                              + mats[d][a, 2][i] * st[f"F2{b}"][i])

    sol = solve_compatible(ch, [
        Unknown(f"F{a}{b}", {d: entry(a, b, d) for d in range(2)},
                boundary=1.0 if a == b else 0.0)
        for a in range(3) for b in range(3)])
    frame = np.zeros(ch.shape + (3, 3))
    for a in range(3):
        for b in range(3):
            frame[..., a, b] = sol[f"F{a}{b}"]
    coeff = [curv.k1 * H1 / np.sqrt(s1), curv.k2 * H2 / np.sqrt(s2)]

    def leg(d, c):
        return lambda st, i: coeff[d][i] * frame[..., d, c][i]

    rsol = solve_compatible(ch, [
        Unknown(f"r{c}", {d: leg(d, c) for d in range(2)}, boundary=0.0)
        for c in range(3)])
    return frame, np.stack([rsol[f"r{c}"] for c in range(3)], axis=-1)


def test_family_matches_scalar_unknowns_bytes(seed, radii, family):
    for mesh in family:
        frame, verts = _family_by_scalar_unknowns(seed, radii, mesh.lam)
        assert mesh.normals.tobytes() == frame[..., 2, :].tobytes()
        assert mesh.vertices.tobytes() == verts.tobytes()
        drift = np.max(np.abs(np.einsum("...ki,...kj->...ij", frame, frame)
                              - np.eye(3)))
        assert mesh.notes[0] == f"frame_drift={drift:.3e}"


def test_skipped_zero_entries_change_no_mesh_bit(seed, radii, family,
                                                monkeypatch):
    # B1 and B2 with their structural zeros filled by np.zeros give the
    # same meshes, byte for byte
    lax_mats = surface._lax_mats

    def filled(*args):
        return tuple(with_zeros([M], k, (2,), finite=False)[0]
                     for M, k in zip(lax_mats(*args), (3, 3, 2, 2)))

    monkeypatch.setattr(surface, "_lax_mats", filled)
    for mesh, full in zip(family, _family(seed, radii)):
        assert mesh.vertices.tobytes() == full.vertices.tobytes()
        assert mesh.normals.tobytes() == full.normals.tobytes()
        assert mesh.eigenvalues.tobytes() == full.eigenvalues.tobytes()
        assert mesh.notes == full.notes


def test_nan_transport_residual_is_not_a_pass():
    # only the second equation sees the NaN log-derivative
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    L2 = _full(ch, 0.0)
    L2[4, 4] = np.nan
    assert np.isnan(pc_residual(_full(ch, 2.0), _full(ch, 3.0),
                                _full(ch, 0.0), L2, ch))


def test_overflowing_shape_operator_is_not_a_pass(seed, family):
    # stored spectra that overflow to inf differ by NaN, which must survive
    with np.errstate(over="ignore"):
        inf = np.full(seed.chart.shape + (2,), 1e308) * 10.0
    meshes = [dataclasses.replace(m, eigenvalues=inf) for m in family]
    with np.errstate(all="ignore"):
        rep = weingarten_family_compare(meshes)
    assert np.isnan(rep["eigenvalue_deviation"])


def _with_vertices(mesh, vertices):
    return dataclasses.replace(mesh, vertices=vertices)


def _hausdorff_after_procrustes(mesh_a, mesh_b):
    """Oracle: the Hausdorff distance between the vertex sets after an
    orthogonal Procrustes fit, which also admits reflections."""
    linalg = pytest.importorskip("scipy.linalg")
    spatial = pytest.importorskip("scipy.spatial")
    A = mesh_a.vertices.reshape(-1, 3)
    B = mesh_b.vertices.reshape(-1, 3)
    A = A - A.mean(axis=0)
    B = B - B.mean(axis=0)
    B = B @ linalg.orthogonal_procrustes(B, A)[0]
    return max(float(np.max(spatial.cKDTree(B).query(A)[0])),
               float(np.max(spatial.cKDTree(A).query(B)[0])))


def _rotation():
    """A proper rotation about a generic axis."""
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    return q * np.sign(np.linalg.det(q))    # -q flips det q in 3D


def test_rigid_motion_has_no_deformation_size(family):
    moved = _with_vertices(
        family[-1], family[-1].vertices @ _rotation().T + (3.0, -1.0, 0.5))
    assert mesh_nontriviality(family[-1], moved) < 1e-12
    assert mesh_nontriviality(moved, family[-1]) < 1e-12


def test_mirror_image_is_a_deformation(family):
    # z -> -z is no rigid motion, though an orthogonal fit undoes it
    mirrored = _with_vertices(family[-1], family[-1].vertices * (1, 1, -1))
    assert mesh_nontriviality(family[-1], mirrored) > 1e-3
    assert mesh_nontriviality(mirrored, family[-1]) > 1e-3


def test_hausdorff_distance_bounds_the_deformation_size(family):
    mirrored = _with_vertices(family[-1], family[-1].vertices * (1, 1, -1))
    pairs = [(family[a], family[b])
             for a, b in [(0, 1), (0, 2), (1, 2), (2, 0)]]
    for mesh_a, mesh_b in pairs + [(family[-1], mirrored)]:
        assert (_hausdorff_after_procrustes(mesh_a, mesh_b)
                <= mesh_nontriviality(mesh_a, mesh_b))
    # the reflection-admitting fit undoes the mirror image
    assert _hausdorff_after_procrustes(family[-1], mirrored) < 1e-12


def test_infinite_vertices_have_no_deformation_size(family):
    vertices = family[0].vertices.copy()
    vertices[0, 5, 2] = -np.inf
    with pytest.raises(ValueError):
        mesh_nontriviality(_with_vertices(family[0], vertices), family[-1])


def test_nan_vertices_have_no_deformation_size(family):
    broken = surface.SurfaceMesh(family[0].lam, family[0].vertices.copy(),
                                 family[0].normals, family[0].eigenvalues,
                                 family[0].off_diagonal)
    broken.vertices[3, 3, 0] = np.nan
    with pytest.raises(ValueError):
        mesh_nontriviality(broken, family[-1])
    with pytest.raises(ValueError):
        mesh_nontriviality(family[-1], broken)


def _shape_operator_by_full_loop(mesh, chart):
    """Reference: the per-vertex shape operator with I and II formed in
    full, (a, b) and (b, a), and I^-1 = adj(I) (1 / det I)."""
    h = chart.spacing()
    dr = [deriv(mesh.vertices, a, h[a]) for a in range(2)]
    dn = [deriv(mesh.normals, a, h[a]) for a in range(2)]
    I = np.empty(chart.shape + (2, 2))
    II = np.empty_like(I)
    for a in range(2):
        for b in range(2):
            I[..., a, b] = np.einsum("...c,...c->...", dr[a], dr[b])
            II[..., a, b] = -np.einsum("...c,...c->...", dn[a], dr[b])
    rdet = 1.0 / (I[..., 0, 0] * I[..., 1, 1] - I[..., 0, 1] * I[..., 1, 0])
    inv = np.stack([I[..., 1, 1] * rdet, -I[..., 0, 1] * rdet,
                    -I[..., 1, 0] * rdet, I[..., 0, 0] * rdet],
                   axis=-1).reshape(I.shape)
    S = np.einsum("...ab,...bc->...ac", inv, II)
    # LAPACK's inverse gives the same operator to round-off
    lapack = np.einsum("...ab,...bc->...ac", np.linalg.inv(I), II)
    assert np.all(np.abs(S - lapack) <= 8 * _ulp(S)[..., None, None])
    return S


def _ulp(S):
    """The spacing of the doubles at max |S| of each vertex's operator."""
    return np.spacing(np.abs(S).max(axis=(-2, -1)))


def _compare_by_lapack(meshes, chart):
    """Reference: weingarten_family_compare as it was, with a LAPACK
    eigen-decomposition of every mesh's shape operator; returns also the
    largest max |S| over the meshes."""
    core = (slice(2, -2),) * 2
    ops = [_shape_operator_by_full_loop(m, chart)[core] for m in meshes]
    eigs = [np.sort(np.linalg.eigvals(S).real, axis=-1) for S in ops]
    eig_dev = 0.0
    angle_dev = 0.0
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            eig_dev = max_abs(eig_dev, eigs[a] - eigs[b])
    for S, ev in zip(ops, eigs):
        gap = np.abs(ev[..., 1] - ev[..., 0])
        ok = gap >= 1e-6
        off = np.maximum(np.abs(S[..., 0, 1]), np.abs(S[..., 1, 0]))
        angle_dev = max_abs(angle_dev, np.arctan2(off[ok], gap[ok]))
    return [eig_dev, angle_dev], max(max_abs(S) for S in ops)


@pytest.fixture(scope="module")
def broken_family():
    # eta1 depends on R2, so the spectra and directions really differ
    ch = Chart(2, ((0.5, 1.5), (0.0, 1.0)), (33, 33))
    bad = SurfaceModel.from_text("1", "R1^2", "5-R1^2+3*R2^2", "1+R2^2", ch)
    curv = solve_codazzi(*bad.shifted_form(0.0), "2+2*R1", "2.5", ch)
    return ch, _family(bad, curv)


def test_mesh_spectra_match_lapack_to_round_off(seed, family,
                                                broken_family):
    # the closed-form spectrum is LAPACK's to 8 ulp of max |S| per vertex;
    # the off-diagonal grid and the excluded count keep their bytes
    for chart, meshes in ((seed.chart, family), broken_family):
        for mesh in meshes:
            S = _shape_operator_by_full_loop(mesh, chart)
            eig = np.sort(np.linalg.eigvals(S).real, axis=-1)
            gap = np.abs(eig[..., 1] - eig[..., 0])
            off = np.maximum(np.abs(S[..., 0, 1]), np.abs(S[..., 1, 0]))
            assert np.all(np.abs(mesh.eigenvalues - eig)
                          <= 8 * _ulp(S)[..., None])
            assert mesh.off_diagonal.tobytes() == off.tobytes()
            assert mesh.excluded == int(np.count_nonzero(gap < 1e-6))


def test_family_compare_matches_lapack_to_round_off(seed, family,
                                                    broken_family):
    # each spectrum moves by at most 8 ulp of max |S|, so a deviation
    # between two moves by at most 16; the angles read the same
    # off-diagonal grid and gaps of at least 1e-6 that moved as little
    for chart, meshes in ((seed.chart, family), broken_family):
        rep = weingarten_family_compare(meshes)
        want, top = _compare_by_lapack(meshes, chart)
        assert abs(rep["eigenvalue_deviation"] - want[0]) <= \
            16 * np.spacing(top)
        assert abs(rep["misalignment_angle"] - want[1]) <= 1e-13 * want[1]
    assert want[0] > 1e-3 and want[1] > 1e-2
