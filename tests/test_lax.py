import numpy as np
import pytest

from pencil_lab import lax, surface
from pencil_lab.cli import SOLVER_BAND
from pencil_lab.compat import verdict
from pencil_lab.diagonal import BoundaryData, DiagonalModel, solve_S, solve_lame
from pencil_lab.entries import dense, matmul, with_zeros
from pencil_lab.grids import Chart, deriv, eval_grid, max_abs
from pencil_lab.lax import (
    FrameSolution, build_lax, frame_slice,
    hypersurface_curvatures, induced_metric_residual, integrate_frame,
    mesh_weingarten, spectrum_2x2, weingarten_scaling_report,
    zero_curvature_residual,
)
from pencil_lab.march import (MarchError, PoleError, Unknown, shift,
                              solve_compatible, solve_frame)

BD3 = {(0, 1): "0.2", (1, 0): "0.1*R1", (2, 0): "0.15",
       (0, 2): "0.1+0.05*R3", (1, 2): "0.2", (2, 1): "0.25"}
ETAS = [1.0, 2.0, 4.0]


@pytest.fixture(scope="module")
def chart():
    return Chart(3, ((0.0, 1.0),) * 3, (17,) * 3)


@pytest.fixture(scope="module")
def model():
    return DiagonalModel.constant(ETAS)


@pytest.fixture(scope="module")
def eta(model, chart):
    return model.eta_grids(chart)


@pytest.fixture(scope="module")
def solved(model, eta, chart):
    beta, _ = solve_S(BoundaryData.from_text(BD3, 3), chart, eta,
                      model.eta_prime_grids(chart))
    H = solve_lame(beta, chart, {0: "1", 1: "1", 2: "1"})
    return beta, H


def _entry_form(X):
    """The dict matrix of a grid + (k, k) array, every entry present."""
    return {idx: np.ascontiguousarray(X[(...,) + idx])
            for idx in np.ndindex(X.shape[-2:])}


def _stacked(M, k, grid):
    """The grid + (k, k) array of the dict matrix M, absent entries zero."""
    return np.ascontiguousarray(np.moveaxis(dense(M, (k, k) + grid), (0, 1),
                                            (-2, -1)))


def _filled(mats, k):
    """The k×k dict matrices with every structural zero present."""
    return tuple(with_zeros([A], k, (2,), finite=False)[0] for A in mats)


def _zero_beta(chart):
    return {(i, j): np.zeros(chart.shape)
            for i in range(3) for j in range(3) if i != j}


def test_connection_entry_value():
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (5, 5))
    model = DiagonalModel.constant([1.0, 3.0])
    beta = {(0, 1): np.ones(ch.shape), (1, 0): np.zeros(ch.shape)}
    conn = build_lax(shift(1.0, model.eta_grids(ch)), beta, ch)
    # weight sqrt((lam+eta_1)/(lam+eta_2)) = sqrt(2/4)
    assert conn[1][0, 1][2, 2] == pytest.approx(1 / np.sqrt(2))
    assert conn[1][1, 0][2, 2] == pytest.approx(-1 / np.sqrt(2))


def test_connection_is_skew(eta, chart, solved):
    beta, _ = solved
    conn = build_lax(shift(0.5, eta), beta, chart)
    for A in conn:
        A = dense(A, (3, 3) + chart.shape)
        assert np.max(np.abs(A + np.swapaxes(A, 0, 1))) < 1e-12


def test_zero_beta_gives_zero_connection(eta, chart):
    # only row d and column d of A_d are present, and zero β makes them zero
    sh = shift(1.0, eta)
    conn = build_lax(sh, _zero_beta(chart), chart)
    for d, A in enumerate(conn):
        assert sorted(A) == sorted({(i, d) for i in range(3) if i != d}
                                   | {(d, j) for j in range(3) if j != d})
        assert all(np.max(np.abs(e)) == 0.0 for e in A.values())
    # a connection with no present entry at all is flat and integrates to
    # the identity frame
    empty = ({},) * 3
    assert zero_curvature_residual(empty, chart) == 0.0
    H = [np.ones(chart.shape)] * 3
    fs = integrate_frame(empty, sh, H, chart)
    assert fs.phi.tobytes() == np.broadcast_to(
        np.eye(3), chart.shape + (3, 3)).tobytes()
    assert fs.ortho_drift == 0.0


def test_pole_rejected(eta, chart, solved):
    # a shift at a pole is refused before any connection is built
    beta, _ = solved
    for lam in (-1.0, -2.5):
        with pytest.raises(MarchError):
            build_lax(shift(lam, eta), beta, chart)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_zero_curvature_sweep(eta, chart, solved, lam):
    beta, _ = solved
    conn = build_lax(shift(lam, eta), beta, chart)
    assert zero_curvature_residual(conn, chart) < 1e-5


def test_zero_curvature_refines_at_fourth_order(model):
    bd = BoundaryData.from_text(BD3, 3)
    res = []
    for m in (9, 17):
        ch = Chart(3, ((0.0, 1.0),) * 3, (m,) * 3)
        eta = model.eta_grids(ch)
        beta, _ = solve_S(bd, ch, eta, model.eta_prime_grids(ch))
        res.append(zero_curvature_residual(build_lax(shift(1.0, eta), beta,
                                                     ch), ch))
    assert res[0] / res[1] > 12.0


def test_perturbed_coefficients_break_curvature(eta, chart, solved):
    beta, _ = solved
    broken = dict(beta)
    broken[(0, 1)] = beta[(0, 1)] + 0.1
    conn = build_lax(shift(1.0, eta), broken, chart)
    assert zero_curvature_residual(conn, chart) > 1e-2


def test_frame_of_zero_connection_is_cartesian(eta, chart):
    beta = _zero_beta(chart)
    H = [np.ones(chart.shape)] * 3
    sh = shift(1.0, eta)
    fs = integrate_frame(build_lax(sh, beta, chart), sh, H, chart)
    assert np.max(np.abs(fs.phi - np.eye(3))) < 1e-12
    mesh = chart.mesh()
    for c in range(3):
        want = mesh[c] / np.sqrt(1.0 + ETAS[c])
        assert np.max(np.abs(fs.rvec[..., c] - want)) < 1e-12


def test_frame_orthogonality_and_metric(eta, chart, solved):
    beta, H = solved
    sh = shift(1.0, eta)
    fs = integrate_frame(build_lax(sh, beta, chart), sh, H, chart)
    assert fs.ortho_drift < 1e-6
    assert induced_metric_residual(fs, sh, H, chart) < 1e-5


def test_non_orthogonal_frame_aborts(eta, chart):
    # a connection with a symmetric part stretches the frame, so the
    # orthogonality guard fires
    mats = [np.zeros(chart.shape + (3, 3)) for _ in range(3)]
    mats[0][..., 0, 0] = 0.5
    conn = tuple(_entry_form(A) for A in mats)
    H = [np.ones(chart.shape)] * 3
    with pytest.raises(MarchError):
        integrate_frame(conn, shift(1.0, eta), H, chart)


def test_flat_slice_has_zero_curvatures(eta, chart):
    beta = _zero_beta(chart)
    H = [np.ones(chart.shape)] * 3
    ks = hypersurface_curvatures(shift(1.0, eta)[2][:, :, 0], beta, H, chart)
    assert all(np.max(np.abs(k)) == 0.0 for k in ks)


def test_frame_slice_copies_the_last_slice(eta, chart, solved):
    # vertices, normals (the last frame row) and lam + eta_3 at R3 = min, each
    # an array of its own that keeps no whole-grid result alive
    beta, H = solved
    sh = shift(1.0, eta)
    fs = integrate_frame(build_lax(sh, beta, chart), sh, H, chart)
    sl = frame_slice(fs, sh, chart)
    for got, want in ((sl.vertices, fs.rvec[:, :, 0]),
                      (sl.normals, fs.phi[:, :, 0, 2]),
                      (sl.sh_n, sh[2][:, :, 0])):
        assert got.tobytes() == want.tobytes()
        assert got.base is None and got.flags.c_contiguous


def _two_shifts(eta, beta, H, chart, lams):
    """(lam + eta, frame) at each of the shifts ``lams``."""
    out = []
    for lam in lams:
        sh = shift(lam, eta)
        out.append((sh, integrate_frame(build_lax(sh, beta, chart), sh, H,
                                        chart)))
    return out


def _scaling_report(eta, beta, H, chart, lams, frame_beta=None):
    """The scaling report at two shifts, its frames integrated from
    ``frame_beta`` (default ``beta``)."""
    fb = beta if frame_beta is None else frame_beta
    sl_a, sl_b = (frame_slice(fs, sh, chart)
                  for sh, fs in _two_shifts(eta, fb, H, chart, lams))
    return weingarten_scaling_report(sl_a, sl_b, beta, H, chart)


def test_curvature_scaling_factor():
    ch = Chart(3, ((0.0, 1.0),) * 3, (9,) * 3)
    model = DiagonalModel.constant([0.25, 0.5, 1.0])
    bd = BoundaryData.from_text(BD3, 3)
    eta = model.eta_grids(ch)
    beta, _ = solve_S(bd, ch, eta, model.eta_prime_grids(ch))
    H = solve_lame(beta, ch, {0: "1", 1: "1", 2: "1"})
    rep = _scaling_report(eta, beta, H, ch, (3.0, 0.0))
    # sqrt((3 + 1)/(0 + 1)) = 2
    ka, kb = (hypersurface_curvatures(shift(lam, eta)[2][:, :, 0], beta, H,
                                      ch) for lam in (3.0, 0.0))
    for a, b in zip(ka, kb):
        assert np.max(np.abs(a - 2.0 * b)) < 1e-12
    assert rep["closed_form_residual"] < 1e-6
    assert not rep["umbilic_flat_slice"]


def test_scaling_report_with_mesh_oracle(eta, chart, solved):
    beta, H = solved
    rep = _scaling_report(eta, beta, H, chart, (1.0, 0.0))
    assert rep["closed_form_residual"] < 1e-6
    assert rep["mesh_eigen_residual_a"] < 1e-3
    assert rep["mesh_eigen_residual_b"] < 1e-3


def test_umbilic_slice_is_flagged(eta, chart):
    beta = _zero_beta(chart)
    H = [np.ones(chart.shape)] * 3
    rep = _scaling_report(eta, beta, H, chart, (1.0, 0.0))
    assert rep["umbilic_flat_slice"]
    assert "vacuous" in rep["note"]


def test_pole_is_a_pole_error(eta, chart, solved):
    with pytest.raises(PoleError):
        shift(-1.0, eta)


def _frame_by_scalar_unknowns(conn, sh, H, chart):
    """Reference: one scalar unknown per frame entry, then one scalar
    unknown per position-vector component solved to its fixed point."""
    n = chart.n
    mats = [dense(A, (n, n) + chart.shape) for A in conn]

    def entry(a, b, d):
        def f(state, idx):
            acc = mats[d][a, 0][idx] * state[f"F0{b}"][idx]
            for c in range(1, n):
                acc = acc + mats[d][a, c][idx] * state[f"F{c}{b}"][idx]
            return acc
        return f

    sol = solve_compatible(chart, [
        Unknown(f"F{a}{b}", {d: entry(a, b, d) for d in range(n)},
                boundary=1.0 if a == b else 0.0)
        for a in range(n) for b in range(n)])
    phi = np.zeros(chart.shape + (n, n))
    for a in range(n):
        for b in range(n):
            phi[..., a, b] = sol[f"F{a}{b}"]
    coeff = [H[d] / np.sqrt(sh[d]) for d in range(n)]

    def leg(d, c):
        return lambda state, idx: coeff[d][idx] * phi[..., d, c][idx]

    rsol = solve_compatible(chart, [
        Unknown(f"r{c}", {d: leg(d, c) for d in range(n)}, boundary=0.0)
        for c in range(n)])
    return phi, np.stack([rsol[f"r{c}"] for c in range(n)], axis=-1)


@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_frame_matches_scalar_unknowns_bytes(eta, chart, solved, lam):
    beta, H = solved
    sh = shift(lam, eta)
    conn = build_lax(sh, beta, chart)
    fs = integrate_frame(conn, sh, H, chart)
    phi, rvec = _frame_by_scalar_unknowns(conn, sh, H, chart)
    assert fs.phi.tobytes() == phi.tobytes()
    assert fs.rvec.tobytes() == rvec.tobytes()


def _solved_2d():
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (17, 13))
    model = DiagonalModel.from_text(["1+0.5*R1", "3"], 2)
    eta = model.eta_grids(ch)
    beta, _ = solve_S(BoundaryData.from_text(
        {(0, 1): "0.2", (1, 0): "0.1*R1"}, 2), ch, eta,
        model.eta_prime_grids(ch))
    H = solve_lame(beta, ch, {0: "1", 1: "1+0.1*R2"})
    return ch, eta, beta, H


def test_frame_2d_matches_scalar_unknowns_bytes():
    ch, eta, beta, H = _solved_2d()
    sh = shift(0.3, eta)
    conn = build_lax(sh, beta, ch)
    fs = integrate_frame(conn, sh, H, ch)
    phi, rvec = _frame_by_scalar_unknowns(conn, sh, H, ch)
    assert fs.phi.tobytes() == phi.tobytes()
    assert fs.rvec.tobytes() == rvec.tobytes()


def test_skipped_zero_entries_change_no_bit(eta, chart, solved):
    # the connection with its structural zeros filled by np.zeros gives the
    # same residual and the same frame bytes (sign of zero included)
    beta, H = solved
    ch2, eta2, beta2, H2 = _solved_2d()
    for e, b, h, ch, lam in ((eta, beta, H, chart, 0.5),
                             (eta2, beta2, H2, ch2, 0.3)):
        sh = shift(lam, e)
        conn = build_lax(sh, b, ch)
        full = _filled(conn, ch.n)
        assert zero_curvature_residual(conn, ch) == \
            zero_curvature_residual(full, ch)
        fs = integrate_frame(conn, sh, h, ch)
        fs_full = integrate_frame(full, sh, h, ch)
        assert fs.phi.tobytes() == fs_full.phi.tobytes()
        assert fs.rvec.tobytes() == fs_full.rvec.tobytes()
    ch, sm, fields = _surface_fields()
    s1, s2 = (0.5 + eval_grid(e, ch) for e in (sm.eta1, sm.eta2))
    B = surface._lax_mats(*fields, s1, s2)[:2]
    full = _filled(B, 3)
    assert zero_curvature_residual(B, ch) == zero_curvature_residual(full, ch)


def test_nan_in_one_present_entry_fails(eta, chart, solved):
    beta, _ = solved
    conn = build_lax(shift(0.5, eta), beta, chart)
    mats = [dict(A) for A in conn]
    mats[1][0, 1] = mats[1][0, 1].copy()
    # the staircase reads A_1 on the plane R3 = min only, so the NaN sits
    # there; the residual sees it anywhere
    mats[1][0, 1][3, 4, 0] = np.nan
    broken = tuple(mats)
    res = zero_curvature_residual(broken, chart)
    assert np.isnan(res) and verdict(res, *SOLVER_BAND) == "fail"
    with pytest.raises(MarchError):
        solve_frame(chart, broken, 3)


def _zero_curvature_einsum(conn, chart):
    h = chart.spacing()
    k = 1 + max(i for A in conn for key in A for i in key)
    mats = [_stacked(A, k, chart.shape) for A in conn]
    worst = 0.0
    for d in range(chart.n):
        for j in range(d + 1, chart.n):
            Ad, Aj = mats[d], mats[j]
            F = (deriv(Aj, d, h[d]) - deriv(Ad, j, h[j])
                 - (np.einsum("...ik,...kj->...ij", Ad, Aj)
                    - np.einsum("...ik,...kj->...ij", Aj, Ad)))
            worst = max_abs(worst, F)
    return worst


@pytest.mark.parametrize("k", [3, 4, 6])
def test_product_of_entries_sums_in_einsum_order(k):
    # on every entry present the sum runs over the inner index in order,
    # as einsum does; scattered magnitudes make another order show
    rng = np.random.default_rng(k)
    X, Y = (rng.standard_normal((9, 9, k, k))
            * 10.0 ** rng.integers(-3, 4, (9, 9, k, k)) for _ in range(2))
    P = matmul(_entry_form(X), _entry_form(Y))
    assert _stacked(P, k, (9, 9)).tobytes() == \
        np.einsum("...ik,...kj->...ij", X, Y).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zero_curvature_matches_einsum(n):
    ch = Chart(n, ((0.0, 1.0),) * n, (5 if n > 3 else 9,) * n)
    rng = np.random.default_rng(n)
    mats = tuple(_entry_form(rng.standard_normal(ch.shape + (n, n)))
                 for _ in range(n))
    assert zero_curvature_residual(mats, ch) == _zero_curvature_einsum(mats, ch)


def test_zero_curvature_matches_einsum_on_solved_connection(eta, chart, solved):
    beta, _ = solved
    conn = build_lax(shift(0.5, eta), beta, chart)
    assert zero_curvature_residual(conn, chart) == \
        _zero_curvature_einsum(conn, chart)


def _one_ulp_off(conn, d, key, idx):
    """``conn`` with entry ``key`` of A_d moved up by one ulp at ``idx``."""
    mats = [dict(A) for A in conn]
    mats[d][key] = np.array(mats[d][key])
    mats[d][key][idx] = np.nextafter(mats[d][key][idx], np.inf)
    return tuple(mats)


def test_a_connection_one_ulp_off_skew_takes_the_general_path(
        eta, chart, solved, monkeypatch):
    # a skew connection differentiates only its entries i < k; one ulp off
    # skew, every entry is differentiated, and both give the einsum's value
    beta, _ = solved
    frame = build_lax(shift(0.5, eta), beta, chart)
    ch, sm, fields = _surface_fields()
    s1, s2 = (0.5 + eval_grid(e, ch) for e in (sm.eta1, sm.eta2))
    B = surface._lax_mats(*fields, s1, s2)[:2]
    calls = []
    monkeypatch.setattr(lax, "deriv",
                        lambda *args: calls.append(1) or deriv(*args))
    for conn, c, off, want in (
            (frame, chart, _one_ulp_off(frame, 1, (0, 1), (3, 4, 5)), 12),
            (B, ch, _one_ulp_off(B, 0, (2, 0), (7, 9)), 4)):
        for mats, n_derivs in ((conn, want), (off, 2 * want)):
            calls.clear()
            assert zero_curvature_residual(mats, c) == \
                _zero_curvature_einsum(mats, c)
            assert len(calls) == n_derivs


def test_a_skew_connection_overflowing_on_the_diagonal_alone_is_nan():
    # F_ii = P_ii - P_ii is 0 where P_ii is finite; here only A_0 A_1 on
    # the diagonal overflows, and with its zeros filled in (not skew) the
    # connection's residual is NaN too
    ch = Chart(3, ((0.0, 1.0),) * 3, (5,) * 3)
    big, one = np.full(ch.shape, 1e200), np.ones(ch.shape)
    conn = ({(1, 0): big, (0, 1): -big, (2, 0): one, (0, 2): -one},
            {(0, 1): big, (1, 0): -big, (2, 1): one, (1, 2): -one},
            {(0, 1): one, (1, 0): -one})
    with np.errstate(all="ignore"):   # as main runs every command
        assert np.isnan(zero_curvature_residual(conn, ch))
        assert np.isnan(zero_curvature_residual(_filled(conn, 3), ch))
        assert np.isnan(_zero_curvature_einsum(conn, ch))


def _surface_fields(rng=None):
    """Seed-surface fields, or smooth positive random ones on its chart."""
    model = surface.seed_surface_model()
    ch = model.chart
    if rng is None:
        return ch, model, [eval_grid(e, ch) for e in model.lame_beta()]
    R1, R2 = ch.mesh()
    fields = []
    for _ in range(4):
        c = rng.uniform(0.2, 1.0, 4)
        fields.append(c[0] + c[1] * np.sin(c[2] * R1 + c[3] * R2))
    return ch, model, fields


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_surface_residuals_match_einsum(seed):
    # the surface 3x3 (real) and 2x2 (complex) checks run through
    # zero_curvature_residual; einsum is the oracle
    rng = None if seed is None else np.random.default_rng(seed)
    ch, model, (H1, H2, b12, b21) = _surface_fields(rng)
    for lam in (0.0, 0.5, 1.0):
        s1 = lam + eval_grid(model.eta1, ch)
        s2 = lam + eval_grid(model.eta2, ch)
        B1, B2, M1, M2 = mats = surface._lax_mats(H1, H2, b12, b21, s1, s2)
        r3, r2 = surface.lax_residuals_3x3_2x2(mats, ch)
        assert r3 == _zero_curvature_einsum((B1, B2), ch)
        oracle = _zero_curvature_einsum((M1, M2), ch)
        assert abs(r2 - oracle) <= 1e-14 * (1.0 + max_abs(*M1.values(),
                                                          *M2.values()))


def _slice_spectrum_by_lapack(fs, chart):
    """Reference: the slice shape-operator spectrum as lax.py took it before
    the closed form, by LAPACK (II with the sign of d_a n = k^a d_a r), and
    the spacing of the doubles at max |S| of each vertex."""
    n = chart.n
    h = chart.spacing()
    idx = (slice(None),) * (n - 1) + (0,)
    r = fs.rvec[idx]
    normal = fs.phi[idx + (n - 1, slice(None))]
    m = n - 1
    dr = [deriv(r, a, h[a]) for a in range(m)]
    dn = [deriv(normal, a, h[a]) for a in range(m)]
    I = np.empty(r.shape[:-1] + (m, m))
    II = np.empty_like(I)
    for a in range(m):
        for b in range(m):
            I[..., a, b] = np.einsum("...c,...c->...", dr[a], dr[b])
            II[..., a, b] = np.einsum("...c,...c->...", dn[a], dr[b])
    S = np.einsum("...ab,...bc->...ac", np.linalg.inv(I), II)
    return (np.sort(np.linalg.eigvals(S).real, axis=-1),
            np.spacing(np.abs(S).max(axis=(-2, -1))))


def test_slice_spectrum_matches_lapack_to_round_off(eta, chart, solved):
    # the closed-form spectrum is LAPACK's to 8 ulp of max |S| per vertex,
    # and the report's residual is that of the closed-form spectrum
    beta, H = solved
    pairs = _two_shifts(eta, beta, H, chart, (1.0, 0.0))
    slices = [frame_slice(fs, sh, chart) for sh, fs in pairs]
    rep = weingarten_scaling_report(*slices, beta, H, chart)
    core = (slice(2, -2),) * 2
    for (_, fs), sl, key in zip(pairs, slices, ("a", "b")):
        old, ulp = _slice_spectrum_by_lapack(fs, chart)
        S = mesh_weingarten(fs.rvec[:, :, 0], fs.phi[:, :, 0, 2],
                            chart.spacing()[:2])
        new = spectrum_2x2(-S)
        assert np.all(np.abs(new - old) <= 8 * ulp[..., None])
        k = np.sort(np.stack(hypersurface_curvatures(
            sl.sh_n, beta, H, chart), axis=-1), axis=-1)
        want = max_abs(new[core] - k[core])
        assert np.float64(rep[f"mesh_eigen_residual_{key}"]).tobytes() == \
            np.float64(want).tobytes()
        assert abs(want - max_abs(old[core] - k[core])) <= 8 * ulp.max()


@pytest.mark.parametrize("S,want", [
    ([[3.0, 1.0], [2.0, 2.0]], [1.0, 4.0]),     # two real roots
    ([[2.0, 1.0], [0.0, 2.0]], [2.0, 2.0]),     # a repeated root
    ([[1.0, -2.0], [2.0, 1.0]], [1.0, 1.0]),    # the pair 1 -+ 2i
    ([[-5.0, 0.0], [0.0, 0.25]], [-5.0, 0.25]),
], ids=["distinct", "repeated", "complex-pair", "diagonal"])
def test_spectrum_2x2_is_exact_on_exact_roots(S, want):
    S = np.array(S)
    got = spectrum_2x2(np.broadcast_to(S, (3, 2, 2)))
    assert got.tolist() == [want] * 3
    assert got[0].tolist() == np.sort(np.linalg.eigvals(S).real).tolist()


def _mesh_weingarten_full_loop(r, normal, spacing):
    """Reference: mesh_weingarten with I formed in full, (a, b) and (b, a),
    and the same closed-form inverse adj(I) (1 / det I)."""
    m = len(spacing)
    dr = [deriv(r, a, spacing[a]) for a in range(m)]
    dn = [deriv(normal, a, spacing[a]) for a in range(m)]
    I = np.empty(r.shape[:-1] + (m, m))
    II = np.empty_like(I)
    for a in range(m):
        for b in range(m):
            I[..., a, b] = np.einsum("...c,...c->...", dr[a], dr[b])
            II[..., a, b] = -np.einsum("...c,...c->...", dn[a], dr[b])
    rdet = 1.0 / (I[..., 0, 0] * I[..., 1, 1] - I[..., 0, 1] * I[..., 1, 0])
    inv = np.stack([I[..., 1, 1] * rdet, -I[..., 0, 1] * rdet,
                    -I[..., 1, 0] * rdet, I[..., 0, 0] * rdet],
                   axis=-1).reshape(I.shape)
    return np.einsum("...ab,...bc->...ac", inv, II)


def _induced_metric_full_loop(fs, sh, H, chart):
    """Reference: induced_metric_residual over every (i, j)."""
    h = chart.spacing()
    dr = [deriv(fs.rvec, d, h[d]) for d in range(chart.n)]
    worst = 0.0
    for i in range(chart.n):
        for j in range(chart.n):
            dot = np.einsum("...c,...c->...", dr[i], dr[j])
            target = H[i] ** 2 / sh[i] if i == j else 0.0
            worst = max_abs(worst, dot - target)
    return worst


def test_symmetric_dot_products_match_the_full_loop_bytes(eta, chart,
                                                          solved):
    # the dot product of two grid vectors has the same bytes with its
    # operands swapped, so the mirror-image half of I is copied
    rng = np.random.default_rng(5)
    for shape in ((33, 33, 33, 3), (129, 129, 3)):
        x, y = rng.standard_normal((2,) + shape)
        assert np.einsum("...c,...c->...", x, y).tobytes() == \
            np.einsum("...c,...c->...", y, x).tobytes()
    r, normal = rng.standard_normal((2, 129, 129, 3))
    spacing = (0.01, 0.02)
    assert mesh_weingarten(r, normal, spacing).tobytes() == \
        _mesh_weingarten_full_loop(r, normal, spacing).tobytes()
    beta, H = solved
    sh = shift(1.0, eta)
    fs = integrate_frame(build_lax(sh, beta, chart), sh, H, chart)
    idx = (slice(None), slice(None), 0)
    args = (fs.rvec[idx], fs.phi[idx + (2, slice(None))], chart.spacing()[:2])
    assert mesh_weingarten(*args).tobytes() == \
        _mesh_weingarten_full_loop(*args).tobytes()
    assert np.float64(induced_metric_residual(fs, sh, H, chart)).tobytes() \
        == np.float64(_induced_metric_full_loop(fs, sh, H, chart)).tobytes()


def test_mesh_weingarten_of_a_sphere():
    # on the unit sphere with outward normal n = r, d_a n = d_a r, so
    # II = -I and S = -identity
    ch = Chart(2, ((0.5, 1.5), (0.0, 1.0)), (33, 33))
    th, ph = ch.mesh()
    r = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                  np.cos(th)], axis=-1)
    S = mesh_weingarten(r, r, ch.spacing())
    assert S.shape == ch.shape + (2, 2)
    assert max_abs(S + np.eye(2)) < 1e-5
    # and its spectrum is -1 twice; at radius 2 it is -1/2 twice
    assert max_abs(spectrum_2x2(S) + 1.0) < 1e-5
    S2 = mesh_weingarten(2.0 * r, r, ch.spacing())
    assert max_abs(spectrum_2x2(S2) + 0.5) < 1e-5


def test_degenerate_mesh_has_no_shape_operator():
    # a mesh with no extent along R2 or none at all has a singular I, and a
    # NaN vertex spreads through the stencil: no S is finite
    ch = Chart(2, ((0.5, 1.5), (0.0, 1.0)), (9, 9))
    th = ch.mesh()[0]
    line = np.stack([th, 0.0 * th, 0.0 * th], axis=-1)
    holed = np.stack(ch.mesh() + [0.0 * th], axis=-1)
    holed[4, 4, 2] = np.nan
    normal = np.broadcast_to((0.0, 0.0, 1.0), ch.shape + (3,))
    for r in (line, np.zeros(ch.shape + (3,)), holed):
        with pytest.raises(MarchError, match="not finite"):
            mesh_weingarten(r, normal, ch.spacing())


def _nan_grids(chart, shape=()):
    return np.full(chart.shape + shape, np.nan)


def test_nan_connection_is_not_flat(chart):
    conn = tuple(_entry_form(_nan_grids(chart, (3, 3))) for _ in range(3))
    assert np.isnan(zero_curvature_residual(conn, chart))


def test_nan_position_vector_fails_metric_check(eta, chart, solved):
    _, H = solved
    fs = FrameSolution(np.broadcast_to(np.eye(3), chart.shape + (3, 3)),
                       _nan_grids(chart, (3,)), 0.0)
    assert np.isnan(induced_metric_residual(fs, shift(1.0, eta), H, chart))


def test_nan_curvatures_fail_scaling_ratio(eta, chart, solved):
    beta, H = solved
    broken = dict(beta)
    broken[(2, 1)] = _nan_grids(chart)
    rep = _scaling_report(eta, broken, H, chart, (1.0, 0.0), frame_beta=beta)
    assert np.isnan(rep["closed_form_residual"])
