import importlib
import pkgutil

import pytest

import isotower
from isotower.cli import main
from isotower.presets import DEMOS
from isotower.serialize import canonical_dumps, canonical_loads


def run(args):
    return main(args)


def m2_sqrt2_input():
    """The corestrict input scripts/make_demo_inputs.py writes as m2_sqrt2.json."""
    from isotower.certjson import algebra_doc, cyclic_doc
    from isotower.csa import matrix_algebra
    from isotower.presets import cyclic_sqrt

    cyc = cyclic_sqrt(2)
    return {"algebra": algebra_doc(matrix_algebra(cyc.tower, 1)), "cyclic": cyclic_doc(cyc)}


def test_isotropy_file_flow(tmp_path, capsys):
    system = {
        "forms": [
            [["1/1", "0/1"], ["0/1", "1/1"]],
        ],
        "tower": [],
    }
    inp = tmp_path / "sys.json"
    inp.write_text(canonical_dumps(system))
    out = tmp_path / "cert.json"
    assert run(["isotropy", "--input", str(inp), "--output", str(out)]) == 0
    doc = canonical_loads(out.read_text())
    assert doc["claimed_bound"] == 2 and doc["actual_degree"] == 2
    assert run(["verify", "--input", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_split_file_flow_and_verify(tmp_path, capsys):
    quat = {
        "presentation": "standard",
        "field": [{"label": "a", "minpoly": ["-1/1", "-2/1", "1/1", "1/1"]}],
        "u": ["0/1", "1/1", "0/1"],
        "v": ["2/1", "0/1", "0/1"],
    }
    inp = tmp_path / "quat.json"
    inp.write_text(canonical_dumps(quat))
    out = tmp_path / "cert.json"
    assert run(["split-quaternion", "--input", str(inp), "--output", str(out)]) == 0
    doc = canonical_loads(out.read_text())
    assert doc["degree_over_F"] <= 8
    assert run(["verify", "--input", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured


def test_verify_fails_on_tampered(tmp_path, capsys):
    system = {"forms": [[["1/1", "0/1"], ["0/1", "-1/1"]]], "tower": []}
    inp = tmp_path / "sys.json"
    inp.write_text(canonical_dumps(system))
    out = tmp_path / "cert.json"
    run(["isotropy", "--input", str(inp), "--output", str(out)])
    doc = canonical_loads(out.read_text())
    doc["witness"][0] = "5/1"
    out.write_text(canonical_dumps(doc))
    assert run(["verify", "--input", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_code_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--input", str(bad)]) == 2
    bad.write_text(canonical_dumps({"forms": []}))
    assert run(["verify", "--input", str(bad)]) == 2


@pytest.mark.parametrize(
    "system",
    [
        {"forms": [[["1/1", "2/1"], ["0/1", "1/1"]]], "tower": []},  # not symmetric
        {"forms": [], "tower": []},
        {"forms": 5, "tower": []},
        {"forms": [[["1/1"]]]},  # no tower
    ],
)
def test_exit_code_malformed_system(tmp_path, capsys, system):
    inp = tmp_path / "sys.json"
    inp.write_text(canonical_dumps(system))
    assert run(["isotropy", "--input", str(inp)]) == 2
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, path, edit",
    [
        ("corestrict", ("algebra", "constants", 0), lambda rows: rows[:3]),
        ("corestrict", ("algebra", "unit"), lambda unit: unit[:2]),
        ("corestrict", ("cyclic", "k_level"), lambda _: 5),
        ("corestrict", ("algebra", "constants"), lambda _: 5),
        ("corestrict", ("cyclic", "sigma"), lambda _: 5),
        ("verify", ("constants", 1, 2), lambda row: row[:3]),
        ("verify", ("source", "cyclic", "k_level"), lambda _: 3),
        ("verify", ("source", "cyclic", "sigma"), lambda _: [["1/1"]]),
        ("corestrict", ("algebra",), lambda alg: {k: v for k, v in alg.items() if k != "unit"}),
        ("corestrict", ("cyclic",), lambda cyc: {k: v for k, v in cyc.items() if k != "sigma"}),
    ],
)
def test_exit_code_malformed_cor(tmp_path, capsys, command, path, edit):
    doc = m2_sqrt2_input()
    if command == "verify":
        inp = tmp_path / "alg.json"
        inp.write_text(canonical_dumps(doc))
        assert run(["corestrict", "--input", str(inp), "--output", str(tmp_path / "cor.json")]) == 0
        doc = canonical_loads((tmp_path / "cor.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = edit(parent[path[-1]])
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert run([command, "--input", str(bad), "--output", str(tmp_path / "out.json")]) == 2
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda q: q.pop("field"), "needs 'presentation' and 'field'"),
        (lambda q: q.update(presentation="hamilton"), "unknown presentation 'hamilton'"),
        (lambda q: q.pop("v"), "missing quaternion entry 'v'"),
        (lambda q: q.update(u="0/1"), "requires u, v != 0"),
    ],
    ids=["no-field", "unknown-presentation", "no-v", "zero-u"],
)
def test_exit_code_malformed_quaternion(tmp_path, capsys, edit, reason):
    quat = {"presentation": "standard", "field": [], "u": "2/1", "v": "3/1"}
    edit(quat)
    inp = tmp_path / "quat.json"
    inp.write_text(canonical_dumps(quat))
    assert run(["split-quaternion", "--input", str(inp), "--output", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err and reason in err


@pytest.mark.parametrize("value", ['"yes"', "1", "NaN", "Infinity", "-Infinity"])
def test_exit_code_matrix_units_not_a_bool(tmp_path, capsys, value):
    # the quat_sqrt2.json of scripts/make_demo_inputs.py, a division algebra,
    # with its matrix_units flag written as a JSON value that is not a bool
    from isotower.certjson import algebra_doc, cyclic_doc
    from isotower.csa import quaternion_structure_algebra
    from isotower.presets import cyclic_sqrt
    from isotower.splitting import standard_quaternion

    cyc = cyclic_sqrt(2)
    minus_one = cyc.tower.rational(-1, 1)
    division = quaternion_structure_algebra(standard_quaternion(minus_one, minus_one))
    text = canonical_dumps({"algebra": algebra_doc(division), "cyclic": cyclic_doc(cyc)})
    assert text.count('"matrix_units":false') == 1
    inp = tmp_path / "quat_sqrt2.json"
    inp.write_text(text.replace('"matrix_units":false', f'"matrix_units":{value}'))
    out = tmp_path / "cor.json"
    assert run(["corestrict", "--input", str(inp), "--output", str(out)]) == 2
    assert "malformed input" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_precondition(tmp_path, capsys):
    # r = 2 in 3 variables: DimensionTooSmall is named on stderr
    system = {
        "forms": [
            [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]],
            [["2/1", "0/1", "0/1"], ["0/1", "3/1", "0/1"], ["0/1", "0/1", "4/1"]],
        ],
        "tower": [],
    }
    inp = tmp_path / "sys.json"
    inp.write_text(canonical_dumps(system))
    assert run(["isotropy", "--input", str(inp)]) == 3
    err = capsys.readouterr().err
    assert "DimensionTooSmall" in err


def test_exit_code_reducible_level(tmp_path, capsys):
    # X^2 - 4 = (X - 2)(X + 2): inverting t - 2 during the isotropy run hits
    # a zero divisor, which is a precondition violation, not malformed input
    system = {
        "forms": [[[["-2/1", "1/1"], ["0/1", "0/1"]], [["0/1", "0/1"], ["1/1", "0/1"]]]],
        "tower": [{"label": "t", "minpoly": ["-4/1", "0/1", "1/1"]}],
    }
    inp = tmp_path / "sys.json"
    inp.write_text(canonical_dumps(system))
    assert run(["isotropy", "--input", str(inp)]) == 3
    assert "[ReducibilityError]" in capsys.readouterr().err


def test_exit_code_unreadable_or_missing_input(tmp_path, capsys):
    assert run(["verify", "--input", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for command in ("verify", "isotropy", "corestrict"):
        assert run([command, "--input", str(binary)]) == 2
    for command in ("verify", "corestrict"):
        with pytest.raises(SystemExit) as exc:
            run([command])
        assert exc.value.code == 2


def test_exit_code_non_integer_field(tmp_path, capsys):
    system = {"forms": [[["1/1", "0/1"], ["0/1", "1/1"]]], "tower": []}
    inp = tmp_path / "sys.json"
    inp.write_text(canonical_dumps(system))
    out = tmp_path / "cert.json"
    assert run(["isotropy", "--input", str(inp), "--output", str(out)]) == 0
    doc = canonical_loads(out.read_text())
    doc["claimed_bound"] = "abc"
    out.write_text(canonical_dumps(doc))
    assert run(["verify", "--input", str(out)]) == 2
    assert "malformed input" in capsys.readouterr().err


def test_batch_determinism(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    args = ["isotropy", "--seed", "11", "--count", "4", "--preset", "r2"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 4


def test_batch_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "par.jsonl"
    base = ["isotropy", "--seed", "3", "--count", "4", "--preset", "r1"]
    assert run(base + ["--output", str(serial)]) == 0
    assert run(base + ["--jobs", "2", "--output", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_batch_pool_never_outnumbers_items(tmp_path, monkeypatch):
    # the recorder stands in for multiprocessing.Pool and runs the map in
    # this process, so no worker is ever started
    import isotower.cli as cli

    sizes = []

    class Recorder:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(cli, "Pool", Recorder)
    base = ["isotropy", "--seed", "3", "--preset", "r1"]
    one, serial = tmp_path / "one.jsonl", tmp_path / "serial.jsonl"
    assert run(base + ["--jobs", "1000", "--count", "1", "--output", str(one)]) == 0
    assert sizes == []
    assert run(base + ["--count", "1", "--output", str(serial)]) == 0
    assert one.read_bytes() == serial.read_bytes()
    assert run(base + ["--jobs", "1000", "--count", "3", "--output", str(tmp_path / "three.jsonl")]) == 0
    assert sizes == [3]


def test_batch_error_lines(tmp_path):
    # r = 3 needs dim >= 7: every item violates the precondition, the batch
    # still writes one canonical error line per item, in index order
    base = ["isotropy", "--seed", "1", "--count", "3", "--preset", "r3", "--dim", "4"]
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "par.jsonl"
    assert run(base + ["--jobs", "1", "--output", str(serial)]) == 3
    assert run(base + ["--jobs", "2", "--output", str(parallel)]) == 3
    assert serial.read_bytes() == parallel.read_bytes()
    docs = [canonical_loads(line) for line in serial.read_text().splitlines()]
    assert [d["index"] for d in docs] == [0, 1, 2]
    assert all(d["exit"] == 3 and "r(r+1)/2 + 1" in d["error"] for d in docs)


@pytest.mark.parametrize("preset", ["rx", "r0", "r", "3", "r-1"])
def test_isotropy_batch_rejects_malformed_preset(tmp_path, capsys, preset):
    out = tmp_path / "certs.jsonl"
    args = ["isotropy", "--seed", "1", "--count", "1", "--preset", preset, "--output", str(out)]
    assert run(args) == 2
    assert "malformed input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["isotropy", "--preset", "r2", "--count", "-1"],
        ["isotropy", "--preset", "r2", "--count", "1", "--jobs", "0"],
        ["isotropy", "--preset", "r2", "--count", "1", "--jobs", "-3"],
        ["isotropy", "--preset", "r2", "--count", "1", "--dim", "-2"],
        ["isotropy", "--preset", "r2", "--count", "1", "--dim", "0"],
        ["split-quaternion", "--preset", "cubic", "--count", "-1"],
        ["split-quaternion", "--preset", "cubic", "--count", "1", "--jobs", "0"],
    ],
    ids=["count-1", "jobs0", "jobs-3", "dim-2", "dim0", "split-count-1", "split-jobs0"],
)
def test_batch_rejects_malformed_flags(tmp_path, capsys, flags):
    # rejected before any item runs: nothing is written
    out = tmp_path / "certs.jsonl"
    assert run(flags + ["--seed", "1", "--output", str(out)]) == 2
    assert "malformed input" in capsys.readouterr().err
    assert not out.exists()


def test_batch_of_zero_items_is_empty(tmp_path):
    out = tmp_path / "certs.jsonl"
    assert run(["isotropy", "--seed", "1", "--count", "0", "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_split_batch_passes_two_part(tmp_path):
    # the cubic's one level is not quadratic, so declaring it as the 2-part
    # violates a precondition in every item, as it does with --input
    base = ["split-quaternion", "--seed", "1", "--count", "2", "--preset", "cubic"]
    bad = tmp_path / "bad.jsonl"
    assert run(base + ["--two-part", "1", "--output", str(bad)]) == 3
    docs = [canonical_loads(line) for line in bad.read_text().splitlines()]
    assert [d["index"] for d in docs] == [0, 1]
    assert all(d["exit"] == 3 and "2-part" in d["error"] for d in docs)
    # an odd-degree field's empty 2-part is the default declaration
    plain, empty = tmp_path / "plain.jsonl", tmp_path / "empty.jsonl"
    assert run(base + ["--output", str(plain)]) == 0
    assert run(base + ["--two-part", "0", "--output", str(empty)]) == 0
    assert plain.read_bytes() == empty.read_bytes()


def test_verify_reports_malformed_line_and_goes_on(tmp_path, capsys):
    certs = tmp_path / "certs.jsonl"
    assert run(["isotropy", "--seed", "2", "--count", "1", "--preset", "r1",
                "--output", str(certs)]) == 0
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(certs.read_text() + "{not json\n")
    capsys.readouterr()
    assert run(["verify", "--input", str(mixed)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("[0] PASS (isotropy)")
    assert out[1].startswith("[1] MALFORMED: invalid JSON")
    # a FAIL outranks a malformed line
    doc = canonical_loads(certs.read_text())
    doc["forms"][0][0][0] = "5/1"
    mixed.write_text(canonical_dumps(doc) + "{not json\n")
    assert run(["verify", "--input", str(mixed)]) == 1


@pytest.mark.parametrize("value", ["5", "null", "true"])
def test_verify_non_object_document_is_malformed(tmp_path, capsys, value):
    bad = tmp_path / "bad.json"
    bad.write_text(value + "\n")
    assert run(["verify", "--input", str(bad)]) == 2
    assert "malformed input" in capsys.readouterr().err


def test_verify_reports_non_object_line_and_goes_on(tmp_path, capsys):
    certs = tmp_path / "certs.jsonl"
    assert run(["isotropy", "--seed", "2", "--count", "1", "--preset", "r1",
                "--output", str(certs)]) == 0
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("5\n" + certs.read_text())
    capsys.readouterr()
    assert run(["verify", "--input", str(mixed)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("[0] MALFORMED: ")
    assert out[1].startswith("[1] PASS (isotropy)")
    assert len(out) == 2


@pytest.mark.parametrize("place", ["document", "algebra", "cyclic"])
def test_corestrict_non_object_is_malformed(tmp_path, capsys, place):
    doc = m2_sqrt2_input()
    if place == "document":
        doc = 5
    else:
        doc[place] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert run(["corestrict", "--input", str(bad), "--output", str(tmp_path / "out.json")]) == 2
    assert "malformed input" in capsys.readouterr().err


def test_verify_rejects_non_symmetric_gram_as_isotropy_does(tmp_path, capsys):
    # form 1 of the thm21-r2 certificate with G[0][1] = 1 and G[1][0] = -1:
    # the same value x^T G x everywhere, so only the shape check can see it
    cert = tmp_path / "r2.json"
    assert run(["demo", "thm21-r2", "--output", str(cert)]) == 0
    doc = canonical_loads(cert.read_text())
    doc["forms"][0][0][1], doc["forms"][0][1][0] = "1/1", "-1/1"
    cert.write_text(canonical_dumps(doc))
    system = tmp_path / "system.json"
    system.write_text(canonical_dumps({"forms": doc["forms"], "tower": []}))
    capsys.readouterr()
    assert run(["isotropy", "--input", str(system)]) == 2
    assert "gram matrix must be symmetric" in capsys.readouterr().err
    assert run(["verify", "--input", str(cert)]) == 2
    assert "gram matrix must be symmetric" in capsys.readouterr().err


def test_verify_reports_precondition_line_and_goes_on(tmp_path, capsys):
    # M2 corestricted along Q[x]/(x^2 - 1), sigma: x -> -x, passes; a fixed
    # basis vector with 1 + x and 1 - x at the swapped positions 1 and 4 is
    # fixed by the action, and the independence check then inverts the zero
    # divisor 1 + x
    from isotower.certjson import algebra_doc, cyclic_doc
    from isotower.csa import CyclicExtensionData, matrix_algebra
    from isotower.tower import QQ, tower_extend

    split = tower_extend(QQ, [-1, 0, 1], label="x")
    cyc = CyclicExtensionData.create(split, 1, [[1, 0], [0, -1]], 2)
    inp, cor = tmp_path / "alg.json", tmp_path / "cor.json"
    source = {"algebra": algebra_doc(matrix_algebra(split, 1)), "cyclic": cyclic_doc(cyc)}
    inp.write_text(canonical_dumps(source))
    assert run(["corestrict", "--input", str(inp), "--output", str(cor)]) == 0
    assert run(["verify", "--input", str(cor)]) == 0
    bad = canonical_loads(cor.read_text())
    vec = [["0/1", "0/1"]] * 16
    vec[1], vec[4] = ["1/1", "1/1"], ["1/1", "-1/1"]
    bad["fixed_basis"][0] = vec
    inp.write_text(canonical_dumps(m2_sqrt2_input()))
    assert run(["corestrict", "--input", str(inp), "--output", str(cor)]) == 0
    honest = canonical_loads(cor.read_text())
    batch = tmp_path / "batch.jsonl"
    batch.write_text(canonical_dumps(bad) + canonical_dumps(honest))
    capsys.readouterr()
    assert run(["verify", "--input", str(batch)]) == 3
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("[0] PRECONDITION [ReducibilityError]: level 1 minpoly")
    assert out[1].startswith("[1] PASS (cor): ")
    # a FAIL outranks a precondition line, which outranks a malformed one
    honest["constants"][14][3][0] = "9/1"
    batch.write_text(canonical_dumps(bad) + canonical_dumps(honest))
    assert run(["verify", "--input", str(batch)]) == 1
    batch.write_text("{not json\n" + canonical_dumps(bad))
    assert run(["verify", "--input", str(batch)]) == 3
    # one document still ends with exit 3 and the name on stderr
    single = tmp_path / "single.json"
    single.write_text(canonical_dumps(bad))
    capsys.readouterr()
    assert run(["verify", "--input", str(single)]) == 3
    assert "precondition violated [ReducibilityError]" in capsys.readouterr().err


def test_split_batch_verify(tmp_path, capsys):
    out = tmp_path / "certs.jsonl"
    assert run([
        "split-quaternion", "--seed", "5", "--count", "2", "--preset", "cubic",
        "--output", str(out),
    ]) == 0
    assert run(["verify", "--input", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 2


def test_corestrict_flow(tmp_path, capsys):
    inp = tmp_path / "alg.json"
    inp.write_text(canonical_dumps(m2_sqrt2_input()))
    out = tmp_path / "cor.json"
    assert run(["corestrict", "--input", str(inp), "--output", str(out)]) == 0
    result = canonical_loads(out.read_text())
    assert result["report"]["central_simple"] is True
    assert result["report"]["dimension"] == 16
    assert run(["verify", "--input", str(out)]) == 0


def test_corestrict_unit_above_constants(tmp_path, capsys):
    # rational constants with the unit at K's level: the algebra's level is
    # taken over the constants and the unit together
    doc = m2_sqrt2_input()
    alg = doc["algebra"]
    alg["constants"] = [[[cell[0] for cell in row] for row in plane] for plane in alg["constants"]]
    assert alg["unit"][0] == ["1/1", "0/1"]
    inp = tmp_path / "alg.json"
    inp.write_text(canonical_dumps(doc))
    out = tmp_path / "cor.json"
    assert run(["corestrict", "--input", str(inp), "--output", str(out)]) == 0
    assert run(["verify", "--input", str(out)]) == 0
    assert "PASS (cor)" in capsys.readouterr().out


def test_demo_runs(capsys):
    assert run(["demo", "thm21-r1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "degree over the base: 2" in out  # <1,1> over Q certifies at degree 2
    assert run(["demo", "--preset", "thm32-r1"]) == 0
    assert run(["demo", "no-such-demo"]) == 2


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_demo_passes(name):
    lines, _doc, ok = DEMOS[name]()
    assert ok, lines


def test_demo_artifact_output(tmp_path):
    out = tmp_path / "demo.json"
    assert run(["demo", "thm21-r2", "--output", str(out)]) == 0
    doc = canonical_loads(out.read_text())
    assert doc["claimed_bound"] == 4


def test_verify_output_writes_the_report(tmp_path, capsys):
    cert, report = tmp_path / "demo.json", tmp_path / "report.txt"
    assert run(["demo", "thm21-r2", "--output", str(cert)]) == 0
    capsys.readouterr()
    assert run(["verify", "--input", str(cert)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("PASS (isotropy): ")
    # the same lines go to the file, and nothing to stdout
    assert run(["verify", "--input", str(cert), "--output", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert report.read_text() == printed


def test_verifier_module_boundary():
    # the verifier re-checks certificates with kernel code only: no imports
    # from any constructor module, so no code path can be shared
    import inspect

    import isotower.verify as verifier

    src = inspect.getsource(verifier)
    for module in ("sqrt", "quadforms", "splitting", "csa", "certjson", "presets", "generate", "cli"):
        assert f"from .{module}" not in src
        assert f"isotower.{module}" not in src


def test_public_names_resolve():
    # a stale __all__ entry breaks "from isotower.<module> import *"
    modules = [isotower] + [
        importlib.import_module(f"isotower.{info.name}")
        for info in pkgutil.iter_modules(isotower.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
