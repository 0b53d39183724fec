"""Correctness gate applied to every benchmarked CLI run.

A run fails when any of these holds:
- the exit code is not 0, or the report verdict is not "pass";
- the residual keys differ from the reference keys;
- a reference is given (default seed, full grid) and a residual exceeds its
  reference value by more than REL_BOUND (plus ABS_FLOOR, since several
  references are exactly 0);
- its artifacts do not hash to the same sha256 as the first run of the same
  input.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REL_BOUND = 0.1
ABS_FLOOR = 1e-12


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def key_shape(keys, lambdas) -> list:
    """Residual keys with each shift label replaced by its position.

    Keys such as ``lax3_0.65`` carry the shift as ``%g``; the seed changes the
    shifts, so keys are compared as ``lax3_<shift 0>``.
    """
    labels = {f"{lam:g}": i for i, lam in enumerate(lambdas)}
    shaped = []
    for key in keys:
        head, _, tail = key.rpartition("_")
        if head and tail in labels:
            key = f"{head}_<shift {labels[tail]}>"
        shaped.append(key)
    return sorted(shaped)


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_run(rc: int, out_dir: str, lambdas: list, expected_keys: list,
              reference: dict | None = None,
              first_hashes: dict | None = None) -> tuple:
    """Check one CLI run; returns (problems, report, artifact hashes).

    ``expected_keys`` is the key shape of the reference run; ``reference``
    maps residual keys to values and is given only at the default seed on
    the full grid; ``first_hashes`` are the hashes of an earlier run of the
    same input.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        return problems + [f"no readable report.json: {e}"], None, {}
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}")
    residuals = {k: row["value"] for k, row in report["residuals"].items()}
    shape = key_shape(residuals, lambdas)
    if shape != expected_keys:
        missing = sorted(set(expected_keys) - set(shape))
        extra = sorted(set(shape) - set(expected_keys))
        problems.append(f"residual keys differ: missing {missing}, "
                        f"unexpected {extra}")
    if reference is not None:
        for key, ref in sorted(reference.items()):
            value = residuals.get(key)
            if value is not None and value > ref * (1 + REL_BOUND) + ABS_FLOOR:
                problems.append(f"residual {key} = {value:.3e} exceeds its "
                                f"reference {ref:.3e}")
    names = ["report.json"] + list(report.get("artifacts", []))
    hashes = {}
    for name in names:
        try:
            hashes[name] = sha256_of(os.path.join(out_dir, name))
        except OSError as e:
            problems.append(f"artifact {name} unreadable: {e}")
    if first_hashes is not None and hashes != first_hashes:
        changed = sorted(n for n in set(hashes) | set(first_hashes)
                         if hashes.get(n) != first_hashes.get(n))
        problems.append(f"artifact sha256 differs from the first run: "
                        f"{changed}")
    return problems, report, hashes
