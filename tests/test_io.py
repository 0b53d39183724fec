import math
import os
import struct
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pencil_lab
from pencil_lab import cli, io
from pencil_lab.grids import Chart
from pencil_lab.io import (_BLOCK_ROWS, _fields, _shares, run_forked,
                           write_csv_grid, write_obj)

DIGEST = "d" * 64
SPECIAL = [-0.0, 1e-300, 1.0 / 3.0, -2.5e300, 5e-324, np.nan, np.inf, 0.1]


def _f(x):
    return "%.17g" % float(x)


def _csv_reference(chart, columns, digest):
    """The per-value writer: one "%.17g" % float(x) per cell."""
    mesh = [m.reshape(-1) for m in chart.mesh()]
    vals = [np.asarray(v).reshape(-1) for v in columns.values()]
    lines = [f"# config={digest}",
             ",".join([f"R{d + 1}" for d in range(chart.n)] + list(columns))]
    for row in range(mesh[0].size):
        lines.append(",".join(_f(c[row]) for c in mesh + vals))
    return "\n".join(lines) + "\n"


def _obj_reference(vertices, normals, digest):
    m1, m2, _ = vertices.shape
    lines = [f"# config={digest}"]
    for tag, arr in (("v", vertices), ("vn", normals)):
        for a in range(m1):
            for b in range(m2):
                lines.append(f"{tag} " + " ".join(_f(x) for x in arr[a, b, :3]))
    for a in range(m1 - 1):
        for b in range(m2 - 1):
            p, q = a * m2 + b + 1, (a + 1) * m2 + b + 1
            r, s = q + 1, p + 1
            lines.append(f"f {p}//{p} {q}//{q} {r}//{r}")
            lines.append(f"f {p}//{p} {r}//{r} {s}//{s}")
    return "\n".join(lines) + "\n"


def _values(shape, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    vals.flat[:len(SPECIAL)] = SPECIAL
    return vals


@pytest.mark.parametrize("chart", [
    Chart(2, ((0.0, 1.0), (-1.0, 3.0)), (9, 7)),
    Chart(3, ((0.0, 1.0), (0.5, 1.5), (0.0, 2.0)), (5, 6, 7)),
    Chart(2, ((0.0, 1.0), (0.0, 1.0)), (71, 67)),  # more rows than a block
    Chart(1, ((-1.0, 1.0),), (9000,)),       # one line longer than a block
    Chart(2, ((0.0, 1.0), (0.0, 3.0)), (5, 4500)),
])
def test_csv_matches_per_value_reference(tmp_path, chart):
    big = _values(tuple(2 * m for m in chart.shape), 1)
    columns = {"a": _values(chart.shape, 2),
               "strided": big[(slice(None, None, 2),) * chart.n],
               "ints": np.arange(np.prod(chart.shape)).reshape(chart.shape)}
    path = tmp_path / "g.csv"
    write_csv_grid(path, chart, columns, DIGEST)
    assert path.read_bytes() == _csv_reference(chart, columns, DIGEST).encode()


@pytest.mark.parametrize("shape", [(5, 4, 3), (71, 67, 3), (1, 6, 3)])
def test_obj_matches_per_value_reference(tmp_path, shape):
    verts = _values(shape, 3)
    norms = np.swapaxes(_values((shape[1], shape[0], 3), 4), 0, 1)  # strided
    path = tmp_path / "m.obj"
    write_obj(path, verts, norms, DIGEST)
    assert path.read_bytes() == _obj_reference(verts, norms, DIGEST).encode()


def test_obj_face_text_is_reused_per_shape(tmp_path):
    # the face rows are formatted once per grid shape; a shape met again
    # after another one must still get its own faces
    for k, shape in enumerate([(5, 4, 3), (71, 67, 3), (5, 4, 3)]):
        verts = _values(shape, 10 + k)
        norms = _values(shape, 20 + k)
        path = tmp_path / f"m{k}.obj"
        write_obj(path, verts, norms, DIGEST)
        assert path.read_bytes() == _obj_reference(verts, norms,
                                                   DIGEST).encode()


def test_block_size_is_exercised():
    assert 71 * 67 > _BLOCK_ROWS and 70 * 66 > _BLOCK_ROWS


def _texts(values) -> list:
    return [bytes(row).rstrip(b"\0") for row in _fields(np.array(values))]


def _as_double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


@st.composite
def _near_powers_of_ten(draw):
    x = 10.0 ** draw(st.integers(-7, 17))
    toward = draw(st.sampled_from([0.0, math.inf]))
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, toward)
    return x


@st.composite
def _binary_ties(draw):
    """m / 2^s with exactly 18 significant digits, the last a 5: "%.17g"
    must round it half to even.  Its leading digit is at 10^e, so it has
    s = 17 - e decimal places, and m is odd and below 2^53."""
    e = draw(st.integers(-8, 15))
    s = 17 - e
    lo = math.ceil(Fraction(10) ** e * 2 ** s)
    hi = min(math.floor(Fraction(10) ** (e + 1) * 2 ** s), 2 ** 53)
    return (2 * draw(st.integers(lo // 2, (hi - 2) // 2)) + 1) / 2 ** s


_DOUBLES = st.one_of(st.integers(0, 2 ** 64 - 1).map(_as_double),
                     _near_powers_of_ten(), _binary_ties())


@settings(max_examples=300)
@given(st.lists(st.tuples(_DOUBLES, st.booleans()), min_size=1,
                max_size=40))
def test_fields_match_printf_bytes(drawn):
    values = [-x if neg else x for x, neg in drawn]
    assert _texts(values) == [b"%.17g" % x for x in values]


@settings(max_examples=50)
@given(_binary_ties())
def test_binary_ties_are_ties(x):
    digits = Decimal(x).as_tuple().digits
    assert len(digits) == 18 and digits[-1] == 5


def test_fields_match_printf_in_bulk():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 63, 20000, dtype=np.int64).view(np.float64)
    values = np.concatenate([
        bits, -bits, rng.standard_normal(20000),
        rng.standard_normal(20000) * 10.0 ** rng.integers(-9, 19, 20000),
        np.round(rng.uniform(-1e3, 1e3, 20000), 3),
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-6, 1e16,
         9999999999999999.0, 0.1, 1 / 3, 99999999999999999e-20]])
    assert _texts(values) == [b"%.17g" % x for x in values.tolist()]


def test_ordinary_values_take_the_fast_path(monkeypatch):
    # only values the numpy path cannot prove go to "%.17g" one at a time;
    # a kernel that sent everything there would pass the tests above
    def refuse(values):
        raise AssertionError(f"{values[:3]} took the fallback path")

    monkeypatch.setattr(io, "_printf", refuse)
    values = np.random.default_rng(3).standard_normal(3 * _BLOCK_ROWS)
    assert np.abs(values).min() >= 1e-6
    assert _texts(values) == [b"%.17g" % x for x in values.tolist()]


def test_importing_io_builds_no_table():
    # the digit table is built on first use, not on the setup of every run
    code = ("import pencil_lab.io as io; "
            "print(io._tables.cache_info().currsize)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(pencil_lab.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout == "0\n"


def test_writers_reject_non_real_values(tmp_path):
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (5, 5))
    z = np.ones(chart.shape, dtype=complex)
    with pytest.raises(TypeError):
        write_csv_grid(tmp_path / "c.csv", chart, {"z": z}, DIGEST)
    with pytest.raises(TypeError):
        write_csv_grid(tmp_path / "t.csv", chart,
                       {"t": np.full(chart.shape, "x")}, DIGEST)
    verts = np.zeros((5, 5, 3), dtype=complex)
    with pytest.raises(TypeError):
        write_obj(tmp_path / "m.obj", verts, verts.real, DIGEST)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _jobs(tmp_path):
    chart = Chart(3, ((0.0, 1.0), (0.5, 1.5), (0.0, 2.0)), (9, 6, 7))
    jobs = [(write_csv_grid, (tmp_path / "g.csv", chart,
                              {"a": _values(chart.shape, 5)}, DIGEST))]
    for k, shape in enumerate([(9, 8, 3), (71, 67, 3), (5, 4, 3)]):
        jobs.append((write_obj, (tmp_path / f"m{k}.obj", _values(shape, k),
                                 _values(shape, 10 + k), DIGEST)))
    return jobs


def _write_files(jobs, monkeypatch, workers):
    """The write path of ``main``: shares of the jobs through the pool."""
    monkeypatch.setenv("PENCIL_LAB_THREADS", str(workers))
    cli._pool_map(cli._write, _shares(jobs, cli._threads()))


def _forks(monkeypatch):
    """Count the calls of os.fork, which still forks."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_write_all_bytes_do_not_depend_on_the_split(tmp_path, monkeypatch,
                                                     workers):
    serial = tmp_path / "serial"
    serial.mkdir()
    jobs = _jobs(serial)
    for writer, args in jobs:
        writer(*args)
    split = tmp_path / "split"
    split.mkdir()
    forks = _forks(monkeypatch)
    jobs = _jobs(split)
    _write_files(jobs, monkeypatch, workers)
    assert sorted(split.iterdir()) == sorted(args[0] for _, args in jobs)
    assert len(forks) == min(workers, len(jobs)) - 1
    _no_child_left()
    for name in ("g.csv", "m0.obj", "m1.obj", "m2.obj"):
        assert (split / name).read_bytes() == (serial / name).read_bytes()


def test_write_all_shares_are_whole_files_dealt_by_size():
    sizes = [3, 50, 7, 20, 20]
    jobs = [(None, (f"f{k}", np.zeros(s))) for k, s in enumerate(sizes)]
    shares = _shares(jobs, 2)
    assert [[args[0] for _, args in share] for share in shares] == [
        ["f1"], ["f3", "f4", "f2", "f0"]]
    assert len(_shares(jobs[:1], 3)) == 1


def test_one_worker_never_forks(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    jobs = _jobs(tmp_path)
    _write_files(jobs, monkeypatch, 1)
    assert sorted(tmp_path.iterdir()) == sorted(args[0] for _, args in jobs)


def test_a_live_thread_keeps_the_writers_here(tmp_path, monkeypatch):
    # a child would hold a copy of this thread only, so the two shares go
    # to the thread pool instead, with the same bytes
    serial = tmp_path / "serial"
    serial.mkdir()
    for writer, args in _jobs(serial):
        writer(*args)

    def refuse():
        raise AssertionError("forked with another thread alive")

    pools = []

    class Recording(cli.ThreadPoolExecutor):
        def map(self, fn, *iterables):
            items = list(*iterables)
            pools.append(len(items))
            return super().map(fn, items)

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    threaded = tmp_path / "threaded"
    threaded.mkdir()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _write_files(_jobs(threaded), monkeypatch, 2)
    finally:
        release.set()
        thread.join()
    assert pools == [2]
    for name in ("g.csv", "m0.obj", "m1.obj", "m2.obj"):
        assert (threaded / name).read_bytes() == (serial / name).read_bytes()


def _broken(path, values):
    raise RuntimeError(f"cannot write {path}")


def test_a_writer_failing_in_the_child_raises(tmp_path, monkeypatch):
    # the child sends its writer's own exception, which is raised here
    forks = _forks(monkeypatch)
    jobs = [(write_obj, (tmp_path / "big.obj", _values((71, 67, 3), 1),
                         _values((71, 67, 3), 2), DIGEST)),
            (_broken, (tmp_path / "small.csv", np.zeros(4)))]
    with pytest.raises(RuntimeError, match="^cannot write .*small.csv$"):
        _write_files(jobs, monkeypatch, 2)
    assert forks == [1]
    _no_child_left()
    # the share written here is complete
    assert (tmp_path / "big.obj").read_bytes().endswith(b"\n")


def _stall(path, values):
    time.sleep(60)


def test_a_failure_here_kills_and_reaps_the_child(tmp_path, monkeypatch):
    # item 0 fails in this process while item 1 stalls in the child
    forks = _forks(monkeypatch)
    jobs = [(_broken, (tmp_path / "big.csv", np.zeros(100))),
            (_stall, (tmp_path / "small.csv", np.zeros(4)))]
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="big.csv"):
        run_forked(lambda job: job[0](*job[1]), jobs, 2)
    assert time.monotonic() - start < 30
    assert forks == [1]
    _no_child_left()
