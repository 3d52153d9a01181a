"""tools/report_identity.py compare's per-case rules under --envelope --moves
<solver>, on small dumps of three of its cases."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest


def _load_report_identity():
    path = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"
    spec = importlib.util.spec_from_file_location("report_identity", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


report_identity = _load_report_identity()

NAMED = "weighted-gmres n=4^2 max_iter=13 restart=None x0=zero"
SINGULAR = "weighted-gmres singular max_iter=13 restart=None x0=zero"
UNNAMED = "gmres n=4^2 max_iter=13 restart=None x0=zero"


@pytest.fixture(scope="module")
def before():
    solves = dict(report_identity.cases())
    out = {}
    for key in (NAMED, SINGULAR, UNNAMED):
        out.update(report_identity.record(key, solves[key]))
    return out


@pytest.fixture()
def compare(before, tmp_path, capsys):
    """compare(changes): the exit status of compare --envelope --moves
    weighted-gmres of the dump with a copy whose arrays changes replaces,
    and its output."""
    np.savez(tmp_path / "before.npz", **before)

    def run(changes):
        np.savez(tmp_path / "after.npz", **dict(before, **changes))
        status = report_identity.compare(tmp_path / "before.npz", tmp_path / "after.npz",
                                         exact=True, moves=["weighted-gmres"])
        return status, capsys.readouterr().out

    return run


def nudged(a, k=-1):
    """a with its entry k one binary64 ulp larger."""
    a = a.copy()
    a[k] = np.nextafter(a[k], np.inf)
    return a


def test_the_dump_against_itself_passes(compare):
    assert compare({})[0] == 0


def test_a_byte_move_in_an_unnamed_solver_fails(before, compare):
    status, out = compare({f"{UNNAMED}|x": nudged(before[f"{UNNAMED}|x"])})
    assert status == 1 and f"{UNNAMED}: bytes of x differ" in out


@pytest.mark.parametrize("part", ["counts", "termination"])
def test_a_moved_count_or_termination_in_a_named_solver_fails(before, compare, part):
    # the case converges at its thirteenth iteration
    assert str(before[f"{NAMED}|termination"]) == "converged"
    moved = {"counts": before[f"{NAMED}|counts"] + [0, 1, 0, 0],
             "termination": np.array("maxiter")}[part]
    status, out = compare({f"{NAMED}|{part}": moved})
    assert status == 1 and f"{NAMED}: {{" in out


def test_a_history_outside_its_bound_fails(before, compare):
    history = before[f"{NAMED}|history"].copy()
    history[-1] += 1e-6 * history[0]
    status, out = compare({f"{NAMED}|history": history})
    assert status == 1 and "(outside the envelope)" in out


def test_a_named_case_within_its_bounds_passes(before, compare):
    hessenberg = before[f"{NAMED}|hessenberg"].copy()
    hessenberg[0, 0] = np.nextafter(hessenberg[0, 0], np.inf)
    status, out = compare({f"{NAMED}|x": nudged(before[f"{NAMED}|x"], 0),
                           f"{NAMED}|history": nudged(before[f"{NAMED}|history"]),
                           f"{NAMED}|checkpoints": nudged(before[f"{NAMED}|checkpoints"]),
                           f"{NAMED}|hessenberg": hessenberg})
    assert status == 0 and f"moved: {NAMED}: history " in out
    assert "outside the envelope" not in out


def test_a_named_hessenberg_keeps_its_shape(before, compare):
    status, out = compare({f"{NAMED}|hessenberg": before[f"{NAMED}|hessenberg"][:-1]})
    assert status == 1 and f"{NAMED}: recorded Hessenberg" in out


def test_a_singular_case_is_listed_as_excluded(before, compare):
    # moved by O(1): outside the theory of the bounds, not outside the envelope
    history = before[f"{SINGULAR}|history"].copy()
    history[1:] *= 2.0
    status, out = compare({f"{SINGULAR}|history": history})
    assert status == 0 and f"excluded: {SINGULAR}: " in out


def test_the_solver_row_leaves_out_its_excluded_cases(before, compare):
    # the singular case's O(1) move is counted as excluded, and the row's
    # largest differences cover the judged case only
    history = before[f"{SINGULAR}|history"].copy()
    history[1:] *= 2.0
    status, out = compare({f"{SINGULAR}|history": history})
    row = next(line.split() for line in out.splitlines() if line.startswith("weighted-gmres "))
    assert status == 0 and row[1:] == ["2", "0", "0", "1", "0", "0"]
