"""Command-line interface: outputs, exit codes, determinism, start-up imports."""
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from doubleline import (
    MODE_A1,
    Crease,
    DoubleLineParams,
    cli,
    construct_dl,
    gen_dl_miura,
    gen_dl_yoshimura,
    gen_single_deg4,
    gen_symmetric_vertex,
    gen_yoshimura,
    read_record,
    symmetric_fold_relation,
    vertex_star,
)
from doubleline.cli import main
from doubleline.dl import fix_mode
from doubleline.fold_io import load_fold, save_fold
from doubleline.pattern import CreasePattern


def run(capsysbinary, *argv):
    code = main(list(argv))
    out = capsysbinary.readouterr()
    return code, out.out, out.err


def test_classify_single_theta(capsysbinary):
    code, out, _ = run(capsysbinary, "classify", "--alpha", "50", "--beta", "70", "--theta", "90")
    assert code == 0
    assert out == b"FullRange\n"
    code, out, _ = run(capsysbinary, "classify", "--alpha", "50", "--beta", "70", "--theta", "70")
    assert code == 0
    assert out == b"Critical\n"
    code, out, _ = run(capsysbinary, "classify", "--alpha", "50", "--beta", "70", "--theta", "60")
    assert code == 0
    assert out.startswith(b"Finite(M=") and out.endswith(b" deg)\n")


def test_classify_table(capsysbinary):
    code, out, _ = run(capsysbinary, "classify", "--alpha", "50", "--beta", "70", "--grid", "30")
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "mode,theta_deg,regime,M_deg"
    assert len(lines) == 1 + 4 * 5  # four modes, thetas 30..150
    assert lines[1].startswith("a-I,30,")


def test_modes_count_and_check(capsysbinary):
    code, out, _ = run(capsysbinary, "modes", "--n", "4")
    assert code == 0
    assert out == b"10\n"
    code, out, _ = run(capsysbinary, "modes", "--n", "3", "--sequences", "--check")
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "4"
    assert lines[1:5] == ["+++---", "++-+--", "++--+-", "+-+-+-"]
    assert lines[5] == "enumeration: 4 (agree)"


def test_gen_analyze_round_trip(tmp_path, capsysbinary):
    path = tmp_path / "single.fold"
    code, out, _ = run(capsysbinary, "gen", "single", "--alpha", "60", "--beta", "80",
                       "--out", str(path))
    assert code == 0
    assert out == b""
    code, out, _ = run(capsysbinary, "analyze", str(path))
    assert code == 0
    text = out.decode()
    assert "vertices: 5" in text
    assert "interior vertices: 1" in text
    assert "flat-foldable deg-4 yes" in text


def test_analyze_vertex_without_unique_branch(tmp_path, capsysbinary):
    path = tmp_path / "sym.fold"
    assert run(capsysbinary, "gen", "symmetric", "--n", "3", "--out", str(path))[0] == 0
    code, out, err = run(capsysbinary, "analyze", str(path))
    assert (code, err) == (0, b"")
    assert out.decode().splitlines()[-1] == "vertex 0: degree 6, flat-foldable deg-4 no, branch ?"


def test_doubleline_sweep_fold_solve_thicken(tmp_path, capsysbinary):
    single = tmp_path / "single.fold"
    doubled = tmp_path / "dl.fold"
    run(capsysbinary, "gen", "single", "--alpha", "60", "--beta", "80", "--out", str(single))
    code, _, _ = run(capsysbinary, "doubleline", str(single), "--theta", "90",
                     "--radii", "0.2,0.2,0.2,0.2", "--mode", "a-I", "--out", str(doubled))
    assert code == 0

    code, out, _ = run(capsysbinary, "sweep", str(doubled), "--samples", "9")
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0].startswith("t,rho_0,") and lines[0].endswith(",residual")
    assert len(lines) == 10
    assert all(float(ln.split(",")[-1]) < 1e-9 for ln in lines[1:])

    code, out, _ = run(capsysbinary, "fold", str(doubled), "--t", "0.5", "--format", "obj")
    assert code == 0
    assert out.startswith(b"# doubleline folded state")

    code, out, _ = run(capsysbinary, "solve", str(doubled), "--driver", "0",
                       "--target", "25", "--tolerance", "1e-10")
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "crease,rho_deg"
    assert abs(float(lines[1].split(",")[1]) - 25.0) < 1e-8

    code, out, _ = run(capsysbinary, "thicken", str(doubled), "--tau", "0.01",
                       "--samples", "8")
    assert code == 0
    assert out.startswith(b"# doubleline thick panels")

    code, out, _ = run(capsysbinary, "thicken", str(doubled), "--tau", "0.01",
                       "--samples", "8", "--format", "csv")
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "t,min_clearance,pair"
    assert len(lines) == 9
    assert all(float(ln.split(",")[1]) >= 0.0 for ln in lines[1:])


def test_export_svg(tmp_path, capsysbinary):
    path = tmp_path / "dlm.fold"
    run(capsysbinary, "gen", "dl-miura", "--rows", "2", "--cols", "2", "--angle", "60",
        "--theta", "90", "--out", str(path))
    code, out, _ = run(capsysbinary, "export", str(path))
    assert code == 0
    assert b"<svg" in out and b"path" in out
    code, _, err = run(capsysbinary, "export", str(path), "--format", "csv")
    assert code == 2
    assert b"argument --format: invalid choice: 'csv'" in err


def test_export_obj_of_a_face_without_a_fan_corner(tmp_path, capsysbinary):
    # a C-shaped face of area 7, which no fan from one corner meshes
    path = tmp_path / "c.fold"
    pts = [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]]
    path.write_text(json.dumps({"vertices_coords": pts, "edges_vertices": [[i, (i + 1) % 8] for i in range(8)],
                                "edges_assignment": ["B"] * 8}))
    code, out, err = run(capsysbinary, "export", str(path), "--format", "obj")
    assert (code, err) == (0, b"")
    lines = out.decode().splitlines()
    verts = [[float(x) for x in ln.split()[1:3]] for ln in lines if ln.startswith("v ")]
    tris = [[verts[int(i) - 1] for i in ln.split()[1:]] for ln in lines if ln.startswith("f ")]
    areas = [((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])) / 2.0 for a, b, c in tris]
    assert len(areas) == 6 and min(areas) > 0.0
    assert math.isclose(sum(areas), 7.0)


def _dl_single(tmp_path, capsysbinary, scale=1.0):
    """The doubled vertex of reproduce.sh, its largest motion multiplier scaled by `scale`."""
    single, doubled = tmp_path / "single.fold", tmp_path / "dl_single.fold"
    assert run(capsysbinary, "gen", "single", "--alpha", "60", "--beta", "80", "--out", str(single))[0] == 0
    assert run(capsysbinary, "doubleline", str(single), "--theta", "90", "--radii", "0.2,0.2,0.2,0.2",
               "--mode", "a-I", "--out", str(doubled))[0] == 0
    doc = json.loads(doubled.read_text())
    g = doc["doubleline:network"]["multipliers"]
    k = max(range(len(g)), key=lambda i: abs(g[i]))
    g[k] *= scale
    doubled.write_text(json.dumps(doc))
    return doubled


@pytest.mark.parametrize("fmt", ["csv", "obj", "fold"])
def test_fold_writes_no_state_that_does_not_close(tmp_path, capsysbinary, fmt):
    torn = _dl_single(tmp_path, capsysbinary, 1.5)
    code, out, err = run(capsysbinary, "fold", str(torn), "--t", "0.5", "--format", fmt)
    assert (code, out) == (1, b"")
    assert err.startswith(b"error: motion sample t=0.5 does not close: residual 1.4")


def test_export_obj_refuses_stored_angles_that_do_not_close(tmp_path, capsysbinary):
    folded = tmp_path / "folded.fold"
    code, _, _ = run(capsysbinary, "fold", str(_dl_single(tmp_path, capsysbinary)), "--t", "0.5",
                     "--out", str(folded))
    assert code == 0
    assert run(capsysbinary, "export", str(folded), "--format", "obj")[0] == 0
    doc = json.loads(folded.read_text())
    k = next(i for i, a in enumerate(doc["edges_assignment"]) if a != "B")
    doc["edges_foldAngle"][k] += 10.0
    folded.write_text(json.dumps(doc))
    code, out, err = run(capsysbinary, "export", str(folded), "--format", "obj")
    assert (code, out) == (1, b"")
    assert err.startswith(b"error: stored fold angles do not close: residual ")


def test_export_obj_of_faces_sharing_only_a_vertex_is_domain_error(tmp_path, capsysbinary):
    # a bowtie: two triangles meeting at vertex 2, no crease between them
    path = tmp_path / "bowtie.fold"
    path.write_text(json.dumps({"vertices_coords": [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]],
                                "edges_vertices": [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 2]],
                                "edges_assignment": ["B"] * 6}))
    code, out, err = run(capsysbinary, "export", str(path), "--format", "obj")
    assert (code, out, err) == (1, b"", b"error: face adjacency graph is disconnected\n")


def test_clearance_csv_without_a_checked_pair(tmp_path, capsysbinary):
    # every pair of the four Miura panels shares the centre vertex
    path = tmp_path / "miura.fold"
    run(capsysbinary, "gen", "miura", "--rows", "2", "--cols", "2", "--angle", "60", "--out", str(path))
    code, out, _ = run(capsysbinary, "thicken", str(path), "--tau", "0.01", "--samples", "3", "--format", "csv")
    assert code == 0
    assert out == b"t,min_clearance,pair\n0.001,inf,\n0.0316227766017,inf,\n1,inf,\n"


def test_domain_error_exit_code(tmp_path, capsysbinary):
    bad = tmp_path / "empty.fold"
    bad.write_bytes(b"")
    code, out, err = run(capsysbinary, "sweep", str(bad))
    assert code == 1
    assert out == b""
    assert err.startswith(b"error:")


def test_usage_error_exit_code(tmp_path, capsysbinary):
    code, _, err = run(capsysbinary, "gen", "miura", "--rows", "2", "--cols", "2")
    assert code == 2
    assert b"--angle" in err
    code, _, _ = run(capsysbinary, "modes")
    assert code == 2


_IGNORED_FLAGS = [  # (argv, what the usage error says)
    (("analyze", "p.fold", "--format", "svg"), "unrecognized arguments: --format"),
    (("analyze", "p.fold", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    (("classify", "--alpha", "50", "--beta", "70", "--format", "csv"), "unrecognized arguments: --format"),
    (("classify", "--alpha", "50", "--beta", "70", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    (("modes", "--n", "3", "--format", "csv"), "unrecognized arguments: --format"),
    (("modes", "--n", "3", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    (("sweep", "p.fold", "--format", "csv"), "unrecognized arguments: --format"),
    (("sweep", "p.fold", "--tolerance", "1e-9"), "unrecognized arguments: --tolerance"),
    (("doubleline", "p.fold", "--theta", "90", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    (("fold", "p.fold", "--t", "0.5", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    (("thicken", "p.fold", "--tau", "0.01", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    (("gen", "single", "--alpha", "60", "--beta", "80", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    (("export", "p.fold", "--tolerance", "1e-6"), "unrecognized arguments: --tolerance"),
    # a format the subcommand cannot write
    (("doubleline", "p.fold", "--theta", "90", "--format", "obj"), "invalid choice: 'obj'"),
    (("fold", "p.fold", "--t", "0.5", "--format", "svg"), "invalid choice: 'svg'"),
    (("solve", "p.fold", "--driver", "0", "--target", "25", "--format", "obj"), "invalid choice: 'obj'"),
    (("thicken", "p.fold", "--tau", "0.01", "--format", "svg"), "invalid choice: 'svg'"),
    (("gen", "single", "--alpha", "60", "--beta", "80", "--format", "csv"), "invalid choice: 'csv'"),
    (("export", "p.fold", "--format", "csv"), "invalid choice: 'csv'"),
    # a flag the generated shape does not take
    (("gen", "single", "--alpha", "60", "--beta", "80", "--rows", "5"), "shape single does not take --rows"),
    (("gen", "miura", "--rows", "2", "--cols", "2", "--angle", "60", "--theta", "3"),
     "shape miura does not take --theta"),
    (("gen", "symmetric", "--n", "3", "--alpha", "60"), "shape symmetric does not take --alpha"),
]


@pytest.mark.parametrize("argv, message", _IGNORED_FLAGS, ids=[f"{a[0]}{a[-2]}" for a, _ in _IGNORED_FLAGS])
def test_flags_a_subcommand_ignores_are_usage_errors(capsysbinary, argv, message):
    code, _, err = run(capsysbinary, *argv)
    assert code == 2
    assert message.encode() in err


def test_missing_file_is_domain_error(capsysbinary):
    code, _, err = run(capsysbinary, "analyze", "/nonexistent/nowhere.fold")
    assert code == 1
    assert err.startswith(b"error:")


def test_determinism(tmp_path, capsysbinary):
    args = ("gen", "dl-miura", "--rows", "2", "--cols", "2", "--angle", "60", "--theta", "90")
    _, first, _ = run(capsysbinary, *args)
    _, second, _ = run(capsysbinary, *args)
    assert first == second

    path = tmp_path / "dlm.fold"
    path.write_bytes(first)
    _, s1, _ = run(capsysbinary, "sweep", str(path), "--samples", "7")
    _, s2, _ = run(capsysbinary, "sweep", str(path), "--samples", "7")
    assert s1 == s2


@pytest.mark.parametrize("doc, message", [
    ({"vertices_coords": [[0, 0], [1, 0]], "edges_vertices": [[0, 5]]},
     b"crease 0 references a missing vertex"),
    ({"vertices_coords": 5}, b"vertices_coords must be a list"),
    ({"vertices_coords": [[0, 10**400], [1, 0]]}, b"vertex 0 must be a list of 2 or 3 finite numbers"),
    ({"vertices_coords": [[0, 0], [1, 0], [0, 1]], "edges_vertices": [[0, 1, 2]]},
     b"edge 0 must be a pair of integer vertex ids"),
])
def test_malformed_fold_is_domain_error(tmp_path, capsysbinary, doc, message):
    bad = tmp_path / "bad.fold"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsysbinary, "analyze", str(bad))
    assert code == 1
    assert out == b""
    assert err == b"error: " + message + b"\n"


def _single():
    return gen_single_deg4(math.radians(60), math.radians(80))


def _doubled():
    return fix_mode(construct_dl(vertex_star(_single(), 0), DoubleLineParams(math.pi / 2, (0.2,) * 4)), MODE_A1)


def _square():
    return CreasePattern.build([(0, 0), (1, 0), (1, 1), (0, 1)], [Crease(i, (i + 1) % 4, "B") for i in range(4)])


def _set(key, index, value, faces=True):
    """An edit setting one entry of a document array; faces=False also drops faces_vertices, so faces are walked."""
    def edit(doc):
        doc[key][index] = value
        if not faces:
            del doc["faces_vertices"]
    return edit


def _add_crease(v0, v1, point=None):
    """An edit adding a U crease (after a vertex at point, if given) and dropping faces_vertices."""
    def edit(doc):
        if point is not None:
            doc["vertices_coords"].append(point)
        doc["edges_vertices"].append([v0, v1])
        doc["edges_assignment"].append("U")
        doc["edges_foldAngle"].append(None)
        del doc["faces_vertices"]
    return edit


def _faces_without_creases(doc):
    """Three vertices, no creases and one face over them."""
    doc.update(vertices_coords=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], edges_vertices=[], edges_assignment=[],
               edges_foldAngle=[], faces_vertices=[[0, 1, 2]])


# id, pattern, edit of its FOLD document, command, the fault's one-line message
_HOSTILE_FOLDS = [
    ("missing-vertex", _single, _set("edges_vertices", 0, [0, 9], faces=False), ("analyze",),
     "crease 0 references a missing vertex"),
    ("loop", _single, _add_crease(2, 2), ("analyze",), "crease 8 is a loop"),
    ("unknown-assignment", _single, _set("edges_assignment", 1, "X", faces=False), ("analyze",),
     "crease 1 has unknown assignment 'X'"),
    ("duplicate", _single, _add_crease(2, 0), ("analyze",), "duplicate crease between vertices (0, 2)"),
    ("zero-length", _single, _add_crease(1, 5, point=[1.0, 0.0]), ("analyze",), "crease 8 has zero length"),
    ("fold-angle-range", _single, _set("edges_foldAngle", 0, 200.0), ("analyze",),
     "crease 0 fold angle outside [-pi, pi]"),
    ("boundary-between-faces", _single, _set("edges_assignment", 0, "B"), ("analyze",),
     "crease 0 (B) borders 2 faces, expected 1"),
    ("not-planar", _single, _set("vertices_coords", 0, [0.0, 0.0, 0.5]), ("analyze",),
     "vertex 0 is not planar (z = 0.5)"),
    ("attribute-length", _single, lambda doc: doc["edges_assignment"].pop(), ("analyze",),
     "edge attribute arrays must match edges_vertices in length"),
    ("fold-angle-text", _single, _set("edges_foldAngle", 0, "90"), ("analyze",),
     "edge 0 fold angle must be a finite number or null"),
    ("short-face", _single, _set("faces_vertices", 0, [0, 1]), ("analyze",),
     "face 0 must be a list of at least 3 integer vertex ids"),
    ("record-degree", _doubled, lambda doc: doc["doubleline:network"]["sectors"][0][1].pop(), ("analyze",),
     "doubleline:network: sectors and corners disagree on vertices or degrees"),
    ("no-interior-vertex", _square, lambda doc: None, ("doubleline", "--theta", "90"),
     "pattern has no interior vertex to double"),
    ("faces-without-creases", _single, _faces_without_creases, ("analyze",),
     "stored faces disagree with the planar embedding"),
    ("not-degree-4", lambda: gen_symmetric_vertex(3), lambda doc: None, ("sweep",),
     "vertex 0 (degree 6) is not a flat-foldable degree-4 vertex"),
]


@pytest.mark.parametrize("pattern, edit, command, message", [row[1:] for row in _HOSTILE_FOLDS],
                         ids=[row[0] for row in _HOSTILE_FOLDS])
def test_a_hostile_fold_file_is_refused_in_one_line_naming_its_fault(tmp_path, capsysbinary, pattern, edit,
                                                                      command, message):
    doc = json.loads(save_fold(pattern()))
    edit(doc)
    path = tmp_path / "hostile.fold"
    path.write_text(json.dumps(doc))
    assert run(capsysbinary, command[0], str(path), *command[1:]) == (1, b"", f"error: {message}\n".encode())


@pytest.mark.parametrize("argv", [
    ("classify", "--alpha", "50", "--beta", "70", "--grid", "0.001"),
    ("modes", "--n", "1001"),
    ("sweep", "{path}", "--samples", "10001"),
    ("thicken", "{path}", "--tau", "0.01", "--samples", "0"),
    ("gen", "miura", "--rows", "13", "--cols", "2", "--angle", "60"),
    ("gen", "dl-yoshimura", "--rows", "2", "--cols", "0", "--elongation", "1.5", "--theta", "90"),
    ("gen", "symmetric", "--n", "101"),
])
def test_size_arguments_are_capped(tmp_path, capsysbinary, argv):
    path = tmp_path / "single.fold"
    run(capsysbinary, "gen", "single", "--alpha", "60", "--beta", "80", "--out", str(path))
    code, out, err = run(capsysbinary, *(a.format(path=path) for a in argv))
    assert code == 1
    assert out == b""
    assert err.startswith(b"error: --") and b"must lie in" in err
    assert err.count(b"\n") == 1


def test_doubleline_refuses_radii_beyond_their_range_in_one_line(tmp_path, capsysbinary):
    single = tmp_path / "single.fold"
    run(capsysbinary, "gen", "single", "--alpha", "60", "--beta", "80", "--out", str(single))
    for r in ("1e-05", "1e6"):
        assert run(capsysbinary, "doubleline", str(single), "--theta", "90", "--radii", ",".join([r] * 4))[::2] \
            == (0, b"")
    # in a fresh process, so that a warning numpy printed would show on stderr
    proc = subprocess.run([sys.executable, "-m", "doubleline", "doubleline", str(single), "--theta", "90",
                           "--radii", "1e200,1e200,1e200,1e200"], capture_output=True, env=_checkout_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: --radii must lie in [1e-05, 1e+06], got 1e+200\n"


def test_solve_writes_its_angles_as_a_fold_file(tmp_path, capsysbinary):
    doubled = _dl_single(tmp_path, capsysbinary)
    argv = ("solve", str(doubled), "--driver", "0", "--target", "25")
    code, csv, err = run(capsysbinary, *argv)
    assert (code, err) == (0, b"")
    rho = [float(row.split(",")[1]) for row in csv.decode().splitlines()[1:]]
    solved = tmp_path / "solved.fold"
    assert run(capsysbinary, *argv, "--format", "fold", "--out", str(solved)) == (0, b"", b"")
    angles = json.loads(solved.read_text())["edges_foldAngle"]
    assert len(angles) == len(rho) and max(abs(a - b) for a, b in zip(angles, rho)) <= 1e-9
    assert len(load_fold(solved.read_bytes()).creases) == len(rho)
    code, out, err = run(capsysbinary, "export", str(solved), "--format", "obj")
    assert (code, err) == (0, b"") and out.startswith(b"# doubleline folded state")


def _doubled_single(tmp_path, capsysbinary):
    """A doubled single vertex with mode a-I fixed, written through the CLI."""
    single, doubled = tmp_path / "single.fold", tmp_path / "dl.fold"
    run(capsysbinary, "gen", "single", "--alpha", "60", "--beta", "80", "--out", str(single))
    run(capsysbinary, "doubleline", str(single), "--theta", "90", "--radii", "0.2,0.2,0.2,0.2",
        "--mode", "a-I", "--out", str(doubled))
    return single, doubled


def test_analyze_reports_recorded_corner_branches(tmp_path, capsysbinary):
    _, doubled = _doubled_single(tmp_path, capsysbinary)
    code, out, _ = run(capsysbinary, "analyze", str(doubled))
    assert code == 0
    branches = [ln.rsplit(" ", 1)[1] for ln in out.decode().splitlines() if ln.startswith("vertex ")]
    assert branches == ["a", "b", "b", "a"]  # mode a-I signs - + + -


@pytest.mark.parametrize("command, corrupt, message", [
    ("sweep", lambda doc: doc["doubleline:network"].update(multipliers={"a": 1}),
     b"multipliers must be"),
    ("thicken", lambda doc: doc.update({"doubleline:network": 5}), b"must be an object"),
    ("thicken", lambda doc: doc.update({"doubleline:network": {"pairs": 5}}), b"must be a list"),
    ("thicken", lambda doc: doc["doubleline:network"]["pairs"][0].__setitem__(1, 999),
     b"pairs must be"),
    ("sweep", lambda doc: doc.update({"doubleline:construction": {"theta": 1.0}}),
     b"'doubleline:construction' is no longer read"),
], ids=("multipliers-object", "record-number", "pairs-number", "pair-id-999", "retired-key"))
def test_malformed_record_is_domain_error(tmp_path, capsysbinary, command, corrupt, message):
    _, doubled = _doubled_single(tmp_path, capsysbinary)
    doc = json.loads(doubled.read_text())
    corrupt(doc)
    doubled.write_text(json.dumps(doc))
    tau = ("--tau", "0.01") if command == "thicken" else ()
    code, out, err = run(capsysbinary, command, str(doubled), *tau)
    assert code == 1
    assert out == b""
    assert err.startswith(b"error: ") and message in err
    assert err.count(b"\n") == 1


def test_a_file_carrying_the_retired_scales_entry_loads_and_sweeps_as_before(tmp_path, capsysbinary):
    fresh = gen_dl_miura(2, 2, math.radians(60), math.pi / 2)
    doc = json.loads(save_fold(fresh))
    doc["doubleline:network"]["scales"] = [[v, 1.0] for v in read_record(fresh).corners]
    old, new = tmp_path / "old.fold", tmp_path / "new.fold"
    old.write_text(json.dumps(doc))
    new.write_bytes(save_fold(fresh))
    assert read_record(load_fold(old.read_bytes())) == read_record(fresh)
    code, out, err = run(capsysbinary, "sweep", str(old), "--samples", "7")
    assert (code, err) == (0, b"") and out == run(capsysbinary, "sweep", str(new), "--samples", "7")[1]


@pytest.mark.parametrize("argv", [("sweep", "--samples", "5", "--t-max", "1"), ("fold", "--t", "0.5", "--format", "csv")],
                         ids=("sweep", "fold-csv"))
def test_motion_csv_refuses_samples_that_do_not_close(tmp_path, capsysbinary, argv):
    # a recorded multiplier off by half: the sampled angles leave the
    # configuration space, and the CSV would carry the residual silently
    _, doubled = _doubled_single(tmp_path, capsysbinary)
    doc = json.loads(doubled.read_text())
    g = doc["doubleline:network"]["multipliers"]
    g[0] *= 1.5
    doubled.write_text(json.dumps(doc))
    code, out, err = run(capsysbinary, argv[0], str(doubled), *argv[1:])
    assert code == 1
    assert out == b""
    t = b"t=0.5 " if argv[0] == "fold" else b"t=0.25 "  # the sweep's first t past 0
    assert err.startswith(b"error: motion sample " + t) and b"does not close: residual " in err
    assert float(err.split(b"residual ")[1].split()[0]) >= 1e-9
    assert err.count(b"\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("doubleline", "{single}", "--theta", "90", "--vertex", "999"), b"--vertex 999 is not an interior"),
    (("doubleline", "{single}", "--theta", "90", "--vertex", "-1"), b"--vertex -1 is not an interior"),
    (("solve", "{doubled}", "--driver", "999", "--target", "25"), b"driver crease 999 is not among"),
    (("sweep", "{doubled}", "--t-max", "nan"), b"--t-max must be finite"),
    (("solve", "{doubled}", "--driver", "0", "--target", "1000"), b"--target must lie in [-180, 180]"),
    (("solve", "{doubled}", "--driver", "0", "--target", "-181"), b"--target must lie in [-180, 180]"),
    (("solve", "{doubled}", "--driver", "0", "--target", "25", "--tolerance", "0"),
     b"--tolerance must be positive"),
    (("solve", "{doubled}", "--driver", "0", "--target", "25", "--tolerance", "-1"),
     b"--tolerance must be positive"),
    (("solve", "{doubled}", "--driver", "0", "--target", "25", "--tolerance", "0.5"),
     b"--tolerance must lie in [0, 1e-09], got 0.5"),
    (("thicken", "{doubled}", "--tau", "0.01", "--t-max", "0"), b"--t-max must be positive"),
    (("thicken", "{doubled}", "--tau", "0.01", "--t-max", "-1"), b"--t-max must be positive"),
], ids=("vertex-999", "vertex-minus-1", "driver-999", "t-max-nan", "target-1000", "target-minus-181",
        "tolerance-0", "tolerance-minus-1", "tolerance-0.5", "thicken-t-max-0", "thicken-t-max-minus-1"))
def test_bad_ids_and_non_finite_values(tmp_path, capsysbinary, argv, message):
    single, doubled = _doubled_single(tmp_path, capsysbinary)
    code, out, err = run(capsysbinary, *(a.format(single=single, doubled=doubled) for a in argv))
    assert code == 1
    assert out == b""
    assert err.startswith(b"error: ") and message in err
    assert err.count(b"\n") == 1


def test_sweep_of_doubled_tessellation_follows_its_labels(tmp_path, capsysbinary):
    # the recorded multipliers carry the motion the M/V labels were assigned
    # from; at 70 deg the network solve's null vector is their negative
    path = tmp_path / "dlm.fold"
    run(capsysbinary, "gen", "dl-miura", "--rows", "3", "--cols", "3", "--angle", "70",
        "--theta", "90", "--out", str(path))
    code, out, _ = run(capsysbinary, "sweep", str(path), "--samples", "3")
    assert code == 0
    last = [float(x) for x in out.decode().splitlines()[-1].split(",")[1:-1]]
    labels = [c.assignment for c in load_fold(path.read_bytes()).creases]
    assert all(rho > 0 for a, rho in zip(labels, last) if a == "V")
    assert all(rho < 0 for a, rho in zip(labels, last) if a == "M")


@pytest.mark.parametrize("theta", ["60", "120"])
def test_gen_refuses_a_critical_root_theta_by_number(tmp_path, capsysbinary, theta):
    code, out, err = run(capsysbinary, "gen", "dl-miura", "--rows", "2", "--cols", "2", "--angle", "60",
                         "--theta", theta, "--out", str(tmp_path / "p.fold"))
    assert code == 1
    assert out == b""
    assert err == (f"error: theta {theta} deg is critical for mode a-I on vertex 4, "
                   "whose critical values are 60 and 120 deg\n").encode()
    assert not (tmp_path / "p.fold").exists()


def test_dl_yoshimura_off_90_alternates_theta_and_sweeps_closed(tmp_path, capsysbinary):
    path = tmp_path / "dly.fold"
    code, _, err = run(capsysbinary, "gen", "dl-yoshimura", "--rows", "2", "--cols", "2", "--elongation", "1.5",
                       "--theta", "80", "--out", str(path))
    assert (code, err) == (0, b"")
    thetas = read_record(load_fold(path.read_bytes())).thetas
    assert {round(math.degrees(t), 9) for t in thetas.values()} == {80.0, 100.0}
    code, out, err = run(capsysbinary, "sweep", str(path), "--samples", "9")
    assert (code, err) == (0, b"")
    rows = out.decode().splitlines()[1:]
    assert len(rows) == 9 and max(float(row.split(",")[-1]) for row in rows) < 1e-9


def _checkout_env():
    """The environment of a new interpreter that imports doubleline from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_python(code):
    """Run code in a new interpreter that imports doubleline from this checkout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_checkout_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _fresh_cli(argv, report):
    """Run ``python -m doubleline ARGV`` in a fresh process, then the statement ``report``."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['doubleline', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('doubleline', run_name='__main__')\n"
        "except SystemExit as exit_:\n"
        "    assert not exit_.code, exit_.code\n"
        f"{report}\n"
    )
    return _fresh_python(code)


def _cli_loads_scipy_optimize(*argv):
    """Run ``python -m doubleline ARGV`` in a fresh process; did it load scipy.optimize?"""
    return _fresh_cli(argv, "print('scipy.optimize' in sys.modules)") == ["True"]


def test_import_and_classify_do_not_load_scipy_optimize(tmp_path):
    assert _fresh_python("import sys, doubleline; print('scipy.optimize' in sys.modules)") == ["False"]
    out = tmp_path / "regimes.csv"
    assert not _cli_loads_scipy_optimize("classify", "--alpha", "50", "--beta", "70", "--grid", "5",
                                         "--out", str(out))
    assert out.read_text().startswith("mode,theta_deg,regime,M_deg\n")


def test_reproduce_commands_load_only_the_modules_they_use(tmp_path, capsysbinary):
    # without bytecode caches every module a command loads is compiled again in each process
    single, doubled = _doubled_single(tmp_path, capsysbinary)
    miura, out = tmp_path / "dl_miura.fold", tmp_path / "out"
    run(capsysbinary, "gen", "dl-miura", "--rows", "3", "--cols", "3", "--angle", "60", "--theta", "90",
        "--out", str(miura))
    unused = [
        (("classify", "--alpha", "50", "--beta", "70", "--grid", "5", "--out", f"{out}.csv"), {"fold3d", "patterns"}),
        (("doubleline", str(single), "--theta", "90", "--radii", "0.2,0.2,0.2,0.2", "--mode", "a-I",
          "--out", f"{out}.fold"), {"fold3d", "patterns"}),
        (("sweep", str(doubled), "--samples", "25", "--out", f"{out}.csv"), {"patterns", "thicken"}),
        (("fold", str(doubled), "--t", "0.5", "--format", "obj", "--out", f"{out}.obj"), {"patterns", "thicken"}),
        (("export", str(miura), "--out", f"{out}.svg"), {"dl", "fold3d"}),
    ]
    report = "print(*(m.split('.')[1] for m in sys.modules if m.startswith('doubleline.')))"
    for argv, modules in unused:
        loaded = set(_fresh_cli(argv, report))
        assert "cli" in loaded and not loaded & modules, (argv[0], sorted(loaded & modules))


def test_gen_dl_miura_does_not_load_scipy_optimize(tmp_path):
    out = tmp_path / "dlm.fold"
    assert not _cli_loads_scipy_optimize("gen", "dl-miura", "--rows", "2", "--cols", "2", "--angle", "60",
                                         "--theta", "90", "--out", str(out))
    assert len(load_fold(out.read_bytes()).interior_vertices) == 4  # one doubled vertex


@pytest.mark.parametrize("argv", [
    ("yoshimura", "--elongation", "1000.001"),
    ("yoshimura", "--elongation", "1e11"),
    ("dl-yoshimura", "--elongation", "1e200", "--theta", "90"),
    ("yoshimura", "--elongation", "1"),
    ("miura", "--angle", "0.00999"),
    ("dl-miura", "--angle", "1e-300", "--theta", "90"),
    ("miura", "--angle", "90"),
])
def test_gen_shape_parameters_are_bounded(tmp_path, capsysbinary, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the call
        code, out, err = run(capsysbinary, "gen", argv[0], "--rows", "2", "--cols", "2", *argv[1:],
                             "--out", str(tmp_path / "p.fold"))
    assert code == 1
    assert out == b""
    assert err.startswith(b"error: ") and err.count(b"\n") == 1
    assert not (tmp_path / "p.fold").exists()


@pytest.mark.parametrize("argv", [
    ("yoshimura", "--elongation", "1000"),
    ("miura", "--angle", "0.01"),
])
def test_gen_shape_parameters_admit_their_range_ends(tmp_path, capsysbinary, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsysbinary, "gen", argv[0], "--rows", "2", "--cols", "2", *argv[1:],
                           "--out", str(tmp_path / "p.fold"))
    assert (code, err) == (0, b"")
    assert load_fold((tmp_path / "p.fold").read_bytes()).interior_vertices


def test_solve_refuses_patterns_above_the_crease_cap(tmp_path, capsysbinary, monkeypatch):
    path = tmp_path / "miura.fold"
    run(capsysbinary, "gen", "miura", "--rows", "3", "--cols", "3", "--angle", "60", "--out", str(path))
    n = len(load_fold(path.read_bytes()).interior_creases)
    argv = ("solve", str(path), "--driver", "6", "--target", "30")
    monkeypatch.setattr(cli, "SOLVE_CREASES_MAX", n)
    assert run(capsysbinary, *argv)[0] == 0
    monkeypatch.setattr(cli, "SOLVE_CREASES_MAX", n - 1)
    message = f"error: solve takes at most {n - 1} interior creases, the pattern has {n}\n"
    assert run(capsysbinary, *argv) == (1, b"", message.encode())


def test_solve_refuses_yoshimura_12x12(tmp_path, capsysbinary, monkeypatch):
    path = tmp_path / "y12.fold"
    path.write_bytes(save_fold(gen_yoshimura(12, 12, 1.5).pattern))
    built = []
    build = CreasePattern.build
    monkeypatch.setattr(CreasePattern, "build", lambda *args, **kw: built.append(args) or build(*args, **kw))
    code, out, err = run(capsysbinary, "solve", str(path), "--driver", "0", "--target", "10")
    assert (code, out) == (1, b"")
    assert err == b"error: solve takes at most 500 interior creases, the pattern has 517\n"
    assert built == []


def test_thicken_csv_warns_when_panels_penetrate(tmp_path, capsysbinary):
    # the recorded motion of this doubled Yoshimura passes through itself,
    # whatever the thickness: faces 6 and 13 cross around half of t_flat
    path = tmp_path / "y22.fold"
    path.write_bytes(save_fold(gen_dl_yoshimura(2, 2, 1.5, math.pi / 2)))
    argv = ("thicken", str(path), "--tau", "1e-4", "--format", "csv")
    code, out, err = run(capsysbinary, *argv)
    assert code == 0
    t, least, pair = min((row.split(",") for row in out.decode().splitlines()[1:]), key=lambda r: float(r[1]))
    assert float(least) < -0.3 and pair == "6-13"
    assert err == f"warning: panels penetrate: least clearance {least} at t {t}, faces 6 and 13\n".encode()
    # the warning goes to stderr only: the CSV is the one --out writes, and OBJ output checks no clearance
    assert run(capsysbinary, *argv, "--out", str(tmp_path / "c.csv")) == (0, b"", err)
    assert (tmp_path / "c.csv").read_bytes() == out
    assert run(capsysbinary, "thicken", str(path), "--tau", "1e-4")[::2] == (0, b"")


def test_thicken_csv_of_the_reproduced_vertex_warns_of_nothing(tmp_path, capsysbinary):
    single, doubled = tmp_path / "single.fold", tmp_path / "dl_single.fold"
    assert run(capsysbinary, "gen", "single", "--alpha", "60", "--beta", "80", "--out", str(single))[0] == 0
    assert run(capsysbinary, "doubleline", str(single), "--theta", "90", "--radii", "0.2,0.2,0.2,0.2",
               "--mode", "a-I", "--out", str(doubled))[0] == 0
    code, out, err = run(capsysbinary, "thicken", str(doubled), "--tau", "0.01", "--samples", "12", "--format", "csv")
    assert (code, err) == (0, b"")
    assert min(float(row.split(",")[1]) for row in out.decode().splitlines()[1:]) > 0.0


def test_thicken_refuses_fewer_than_two_samples(tmp_path, capsysbinary):
    # the grid runs geometrically from t_max / 1000 to t_max: a single
    # sample would be its start alone, a nearly flat state
    single, doubled = _doubled_single(tmp_path, capsysbinary)
    argv = ("thicken", str(doubled), "--tau", "0.01", "--format", "csv", "--samples")
    assert run(capsysbinary, *argv, "1") == (1, b"", b"error: --samples must lie in [2, 10000], got 1\n")
    code, out, err = run(capsysbinary, *argv, "2")
    assert (code, err) == (0, b"")
    rows = [row.split(",") for row in out.decode().splitlines()[1:]]
    assert len(rows) == 2 and math.isclose(float(rows[1][0]), 1000.0 * float(rows[0][0]), rel_tol=1e-9)


def test_thicken_names_the_face_that_vanishes_its_reach_and_the_thickness(tmp_path, capsysbinary):
    # the least crease bound here is 0.0199502893699, so tau = 0.01 passes it; one face's reach is below it
    path = tmp_path / "m44.fold"
    argv = ("gen", "dl-miura", "--rows", "4", "--cols", "4", "--angle", "70", "--theta", "90", "--out", str(path))
    assert run(capsysbinary, *argv)[0] == 0
    refusals = set()
    for tau in ("0.01", "0.0056"):
        code, out, err = run(capsysbinary, "thicken", str(path), "--tau", tau, "--side", "below", "--format", "csv")
        assert (code, out) == (1, b"")
        # faces are read from the message: they are numbered by the layout
        face, reach = re.fullmatch(rf"error: panel for face (\d+) vanishes at thickness {tau}: its reach is (\S+)\n",
                                   err.decode()).groups()
        refusals.add((int(face), reach))
    ((face, reach),) = refusals
    assert face < len(load_fold(path.read_bytes()).faces) and float(reach) == 0.00556060005186
    # just below the named reach the face stands
    assert run(capsysbinary, "thicken", str(path), "--tau", "0.00556", "--side", "below", "--format", "csv")[0] == 0


def _doubled_symmetric(tmp_path, capsysbinary, mode="+-+-+-"):
    """gen symmetric --n 3, doubled at 90 deg in one sign sequence: (exit code, stderr, doubled path)."""
    sym, doubled = tmp_path / "sym.fold", tmp_path / "dl_sym.fold"
    assert run(capsysbinary, "gen", "symmetric", "--n", "3", "--out", str(sym))[0] == 0
    code, _, err = run(capsysbinary, "doubleline", str(sym), "--theta", "90", "--mode", mode, "--out", str(doubled))
    return code, err, doubled


@pytest.mark.parametrize("mode", ["-+-+-+", "+-+-+-"])
def test_doubleline_mode_sequence_may_follow_as_its_own_argument(tmp_path, capsysbinary, mode):
    # argparse alone reads "-+-+-+" as a flag; main joins it to --mode
    code, err, doubled = _doubled_symmetric(tmp_path, capsysbinary, mode)
    assert (code, err) == (0, b"")
    code, out, err = run(capsysbinary, "doubleline", str(tmp_path / "sym.fold"), "--theta", "90", f"--mode={mode}")
    assert (code, err) == (0, b"") and out == doubled.read_bytes()


def test_doubled_degree6_vertex_takes_a_sign_sequence_and_folds(tmp_path, capsysbinary):
    code, err, doubled = _doubled_symmetric(tmp_path, capsysbinary)
    assert (code, err) == (0, b"")
    rec = read_record(load_fold(doubled.read_bytes()))
    assert rec.signs == {0: "+-+-+-"} and len(rec.multipliers) == 30
    assert [rec.corner_modes[c].value for c in rec.corners[0]] == ["b", "a"] * 3

    code, out, err = run(capsysbinary, "sweep", str(doubled), "--samples", "9")
    assert (code, err) == (0, b"")
    rows = [[float(x) for x in ln.split(",")] for ln in out.decode().splitlines()[1:]]
    assert len(rows) == 9 and max(r[-1] for r in rows) < 1e-9
    for r in rows:
        sums = [math.radians(r[1 + plus] + r[1 + minus]) for _, plus, minus in rec.pairs]
        for k in range(0, 6, 2):  # the odd pairs are rho_a, the even ones rho_b
            assert abs(symmetric_fold_relation(3, sums[k + 1]) - sums[k]) < 1e-9

    code, out, err = run(capsysbinary, "fold", str(doubled), "--t", "0.5", "--format", "obj")
    assert (code, err) == (0, b"") and out.startswith(b"# doubleline folded state")
    assert run(capsysbinary, "thicken", str(doubled), "--tau", "0.01")[::2] == (0, b"")


def test_doubled_degree6_vertex_ends_at_its_earliest_flat_pair(tmp_path, capsysbinary):
    # in +-+-+- the odd pairs sum to 180 deg at t = 1, the even ones only at 3.73
    _, _, doubled = _doubled_symmetric(tmp_path, capsysbinary)
    code, out, err = run(capsysbinary, "sweep", str(doubled), "--t-max", "1.3")
    assert (code, out, err) == (1, b"", b"error: --t-max 1.3 lies beyond the flat state at t_flat 1\n")
    for side, least in (("above", "1.13530053838"), ("below", "1.14950232405")):
        code, out, err = run(capsysbinary, "thicken", str(doubled), "--tau", "0.01", "--samples", "8",
                             "--format", "csv", "--side", side)
        assert (code, err) == (0, b"")
        rows = [row.split(",") for row in out.decode().splitlines()[1:]]
        assert rows[-1][:2] == ["0.97", least]
        assert min(float(r[1]) for r in rows) == float(least)


@pytest.mark.parametrize("mode, message", [
    ("+-+-", "mode +-+- has 4 signs, pattern degree 6"),
    ("a-I", "mode a-I has 4 signs, pattern degree 6"),
    ("+-x-+-", "unknown double-line mode '+-x-+-'"),
    ("+-----", "mode +----- does not close on this vertex"),
    ("-+-+--", "mode -+-+-- does not close on this vertex"),
])
def test_doubleline_refuses_a_sequence_that_cannot_fold_the_vertex(tmp_path, capsysbinary, mode, message):
    code, err, doubled = _doubled_symmetric(tmp_path, capsysbinary, mode)
    assert (code, err) == (1, f"error: {message}\n".encode())
    assert not doubled.exists()


def test_classify_takes_mode_labels_only(capsysbinary):
    code, out, err = run(capsysbinary, "classify", "--alpha", "50", "--beta", "70", "--mode=-++-")
    assert (code, out, err) == (1, b"", b"error: unknown double-line mode '-++-'\n")


@pytest.mark.parametrize("argv", [("sweep", "--t-max", "{t}"), ("thicken", "--tau", "0.01", "--t-max", "{t}"),
                                  ("fold", "--t", "{t}"), ("fold", "--t", "-{t}")],
                         ids=("sweep", "thicken", "fold", "fold-negative"))
def test_motion_past_the_flat_state_is_refused(tmp_path, capsysbinary, argv):
    doubled = _dl_single(tmp_path, capsysbinary)
    t_flat = "6.53127368337"
    flag = argv[-2]
    code, out, err = run(capsysbinary, argv[0], str(doubled), *(a.format(t=8) for a in argv[1:]))
    assert (code, out) == (1, b"")
    assert err == f"error: {flag} {argv[-1].format(t=8)} lies beyond the flat state at t_flat {t_flat}\n".encode()
    # a t just short of t_flat still folds
    code, _, err = run(capsysbinary, argv[0], str(doubled), *(a.format(t=6.5312) for a in argv[1:]))
    assert (code, err) == (0, b"")


def test_motion_without_a_flat_state_keeps_any_t(tmp_path, capsysbinary):
    path = tmp_path / "miura.fold"
    run(capsysbinary, "gen", "miura", "--rows", "2", "--cols", "2", "--angle", "60", "--out", str(path))
    assert run(capsysbinary, "sweep", str(path), "--samples", "3", "--t-max", "8")[::2] == (0, b"")
    assert run(capsysbinary, "fold", str(path), "--t", "8", "--format", "csv")[::2] == (0, b"")


def test_import_doubleline_loads_no_submodule():
    code = "import sys, doubleline; print(*sorted(m for m in sys.modules if m.startswith('doubleline.')))"
    assert _fresh_python(code) == []


def _cli_loads(*argv):
    """Run ``python -m doubleline ARGV`` in a fresh process; the package modules it loaded."""
    names = _fresh_cli(argv, "print(*(m for m in sys.modules if m.startswith('doubleline.')))")
    return {name.removeprefix("doubleline.") for name in names} - {"cli", "__main__"}


# The reproduce.sh commands in order (each reads what an earlier one wrote),
# and the modules beyond pattern and geometry that each loads.
# A shape that never folds (gen single) leaves the folding code unloaded.
GEN_MODULES = {"fold_io", "dl", "kinematics", "patterns"}
GEN_FOLDING_MODULES = GEN_MODULES | {"fold3d"}
DOUBLE_MODULES = {"fold_io", "dl", "kinematics"}
MOTION_MODULES = DOUBLE_MODULES | {"fold3d"}
REPRODUCE_LOADS = [
    (("gen", "single", "--alpha", "60", "--beta", "80", "--out", "single.fold"), GEN_MODULES),
    (("gen", "dl-miura", "--rows", "3", "--cols", "3", "--angle", "60", "--theta", "90",
      "--out", "dl_miura.fold"), GEN_FOLDING_MODULES),
    (("doubleline", "single.fold", "--theta", "90", "--radii", "0.2,0.2,0.2,0.2", "--mode", "a-I",
      "--out", "dl_single.fold"), DOUBLE_MODULES),
    (("classify", "--alpha", "50", "--beta", "70", "--grid", "5", "--out", "regimes.csv"), DOUBLE_MODULES),
    (("sweep", "dl_single.fold", "--samples", "25", "--out", "motion.csv"), MOTION_MODULES),
    (("fold", "dl_single.fold", "--t", "0.5", "--format", "obj", "--out", "state.obj"), MOTION_MODULES),
    (("thicken", "dl_single.fold", "--tau", "0.01", "--samples", "12", "--out", "panels.obj"),
     MOTION_MODULES | {"thicken"}),
    (("thicken", "dl_single.fold", "--tau", "0.01", "--samples", "12", "--format", "csv",
      "--out", "clearance.csv"), MOTION_MODULES | {"thicken"}),
    (("export", "dl_miura.fold", "--out", "dl_miura.svg"), {"fold_io", "svg"}),
]


def test_each_reproduce_command_loads_only_what_it_runs(tmp_path):
    for argv, modules in REPRODUCE_LOADS:
        argv = [str(tmp_path / a) if a.endswith((".fold", ".csv", ".obj", ".svg")) else a for a in argv]
        assert _cli_loads(*argv) == {"pattern", "geometry"} | modules, argv
