"""Command line behavior: outputs, exit codes, and the repro harness."""

import itertools
import json
import os
from pathlib import Path

import pytest

from twistlab import autmap, cli, gf, twistcoh, twists

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def run_json(argv, capsys):
    rc, out = run(argv + ["--json"], capsys)
    return rc, json.loads(out)


def test_automorphisms_order_12(capsys):
    rc, doc = run_json(["automorphisms", "--p", "3", "--curve", "0,0,0,2,0"],
                       capsys)
    assert rc == 0
    assert doc["base"] == "3^1" and doc["field"] == "3^2"
    assert doc["order"] == 12 and doc["abelian"] is False
    assert len(doc["elements"]) == 12
    assert doc["element_orders"] == {"1": 1, "2": 1, "3": 2, "4": 6, "6": 2}
    assert doc["subgroup_counts"] == {"1": 1, "2": 1, "3": 1, "4": 3,
                                      "6": 1, "12": 1}
    assert doc["center_size"] == 2
    assert doc["minus_one"] == "(3^2:2,0,3^2:0,0,3^2:0,0,3^2:0,0)@3^2"


def test_automorphisms_order_24(capsys):
    rc, doc = run_json(["automorphisms", "--p", "2", "--curve", "0,0,1,0,0"],
                       capsys)
    assert rc == 0
    assert doc["order"] == 24 and doc["field"] == "2^2"
    assert doc["element_orders"] == {"1": 1, "2": 1, "3": 8, "4": 6, "6": 8}
    assert doc["center_size"] == 2
    assert 8 in [int(k) for k in doc["subgroup_counts"]]
    assert doc["unique_subgroup_orders"]


def test_automorphisms_generic(capsys):
    rc, doc = run_json(["automorphisms", "--p", "5", "--short", "1,1"], capsys)
    assert rc == 0
    assert doc["order"] == 2 and doc["abelian"] is True


def test_twists_char2(capsys):
    rc, doc = run_json(["twists", "--p", "2", "--curve", "0,0,1,0,0"], capsys)
    assert rc == 0
    rows = doc["twists"]
    assert [r["curve"] for r in rows] == [
        ["0", "0", "1", "0", "0"],
        ["0", "0", "1", "1", "0"],
        ["0", "0", "1", "1", "1"],
    ]
    assert sorted(r["split_degree"] for r in rows) == [1, 8, 8]
    assert sorted(r["points"] for r in rows) == [1, 3, 5]
    assert doc["point_counts_distinct"] is True
    assert doc["unseparated_pairs"] == []


def test_twists_char3(capsys):
    rc, doc = run_json(["twists", "--p", "3", "--curve", "0,0,0,2,0"], capsys)
    assert rc == 0
    rows = doc["twists"]
    assert len(rows) == 4
    assert rows[0]["curve"] == ["0", "0", "0", "2", "0"]
    quad = [r for r in rows if r["curve"] == ["0", "0", "0", "1", "0"]]
    assert len(quad) == 1 and quad[0]["split_degree"] == 2
    assert doc["point_counts_distinct"] is False
    assert doc["unseparated_pairs"] == [[0, 3]]


def test_twists_sextic(capsys):
    rc, doc = run_json(["twists", "--p", "3", "--n", "2",
                        "--curve", "0,0,0,2,0"], capsys)
    assert rc == 0
    assert sorted(r["split_degree"] for r in doc["twists"]) == [1, 2, 3, 4, 4, 6]


def test_h1_classes(capsys):
    rc, doc = run_json(["h1", "--p", "2", "--curve", "0,0,1,0,0"], capsys)
    assert rc == 0
    assert doc["group_order"] == 24 and doc["action_order"] == 2
    assert [c["size"] for c in doc["classes"]] == [12, 6, 6]
    assert [c["cocycle_order"] for c in doc["classes"]] == [1, 8, 8]


def test_h1_minus_one_kernel(capsys):
    rc, doc = run_json(["h1", "--p", "7", "--curve", "0,0,0,6,0",
                        "--subgroup", "minus-one"], capsys)
    assert rc == 0
    assert doc["subgroup_order"] == 2
    assert doc["kernel_size"] == 2
    assert doc["image_size"] == 1
    assert doc["injective"] is False


def test_h1_cubic_subgroup(capsys):
    rc, doc = run_json(["h1", "--p", "3", "--n", "2", "--curve", "0,0,0,2,0",
                        "--subgroup", "C3"], capsys)
    assert rc == 0
    assert doc["subgroup_order"] == 3
    assert doc["kernel_size"] == 1
    assert len(doc["collisions"]) == 1
    assert doc["injective"] is False


def test_h1_generator_literal(capsys):
    rc, doc = run_json(["h1", "--p", "3", "--n", "2", "--curve", "0,0,0,2,0",
                        "--subgroup",
                        "(3^2:0,1,3^2:0,0,3^2:0,0,3^2:0,0)@3^2"], capsys)
    assert rc == 0
    # the scaling by a square root of -1 generates the quartic subgroup;
    # over a base with trivial action only the identity class capitulates
    assert doc["subgroup_order"] == 4
    assert len(doc["h_classes"]) == 4
    assert doc["kernel_size"] == 1


def test_h1_ambiguous_subgroup_fails(capsys):
    rc = cli.main(["h1", "--p", "2", "--curve", "0,0,1,0,0",
                   "--subgroup", "C3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "not unique" in captured.err


def test_census(capsys):
    rc, doc = run_json(["census", "--p", "3"], capsys)
    assert rc == 0
    assert doc["count"] == 4
    assert sorted(c["points"] for c in doc["classes"]) == [1, 4, 4, 7]
    assert all(c["supersingular"] for c in doc["classes"])
    rc, doc = run_json(["census", "--p", "3", "--n", "2"], capsys)
    assert rc == 0 and doc["count"] == 6
    rc, doc = run_json(["census", "--p", "2", "--n", "2"], capsys)
    assert rc == 0 and doc["count"] == 7


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3) for n in range(1, 5)]
                         + [(2, 15), (2, 16), (3, 9), (3, 10)])
def test_census_matches_golden_files(capsys, p, n):
    rc, out = run(["census", "--p", str(p), "--n", str(n), "--json"], capsys)
    assert rc == 0
    assert out == (GOLDEN / f"census_{p}_{n}.json").read_text()


@pytest.mark.parametrize("preset", [None, "5000"])
def test_limit_flag_leaves_environment_unchanged(monkeypatch, capsys, preset):
    if preset is None:
        monkeypatch.delenv(gf.LIMIT_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(gf.LIMIT_ENV_VAR, preset)
    # the counts over GF(2^5) walk its 32 elements; those over GF(2^7) are
    # searches, so its 128 elements are no obstacle
    for argv, code in ((["census", "--p", "2", "--n", "1"], 0),
                       (["census", "--p", "2", "--n", "5"], 2),
                       (["census", "--p", "2", "--n", "7"], 0)):
        rc, _ = run(argv + ["--limit", "16"], capsys)
        assert rc == code
        assert os.environ.get(gf.LIMIT_ENV_VAR) == preset


def test_limit_flag_reaches_the_command_without_the_environment(monkeypatch):
    seen = []

    def probe(cfg):
        seen.append((os.environ.get(gf.LIMIT_ENV_VAR), gf.working_limit()))
        return cli.EXIT_OK

    monkeypatch.delenv(gf.LIMIT_ENV_VAR, raising=False)
    monkeypatch.setitem(cli._COMMANDS, "census", probe)
    assert cli.main(["census", "--p", "2", "--limit", "100"]) == cli.EXIT_OK
    assert seen == [(None, 100)]
    assert gf.working_limit() == gf.DEFAULT_LIMIT


def test_census_respects_field_limit(monkeypatch, capsys):
    # the point counts over GF(2^5), below the search's threshold, walk its
    # 32 elements: over the limit of 16
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "16")
    rc, out = run(["census", "--p", "2", "--n", "5"], capsys)
    assert rc == 2
    rc, doc = run_json(["census", "--p", "2", "--n", "5",
                        "--limit", str(1 << 22)], capsys)
    assert rc == 0 and doc["count"] == 3


def test_field_limit_blocks_base_field_creation(monkeypatch, capsys):
    # GF(3^5) is created, but walking its 243 elements is over the limit
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "100")
    rc, _ = run(["twists", "--p", "3", "--n", "5", "--curve", "0,0,0,2,0"],
                capsys)
    assert rc == 2


def test_unfactorable_field_exits_before_the_search(monkeypatch, capsys):
    # 2^61 - 1 and 10^18 + 3 are prime: trial division passes the limit
    # with the cofactor unfactored; 3^10000 - 1 has over 4300 digits, past
    # Python's int-to-str cap, so the message must not print them
    def unreachable(*args):
        pytest.fail("the classes were searched before the limit check")

    monkeypatch.setattr(twists, "_short_classes", unreachable)
    for argv in (["twists", "--p", "2", "--n", "61", "--curve", "0,0,1,0,0"],
                 ["census", "--p", str(10**18 + 3)],
                 ["census", "--p", "3", "--n", "10000"]):
        assert cli.main(argv + ["--limit", "1000"]) == 2
        assert len(capsys.readouterr().err) < 200


def test_repro_all_pass(capsys):
    rc, doc = run_json(["repro"], capsys)
    assert rc == 0
    assert doc["ok"] is True
    assert len(doc["items"]) == 63
    assert all(item["ok"] for item in doc["items"])
    names = [item["name"] for item in doc["items"]]
    assert len(set(names)) == len(names)
    for prefix in ("twist_tables/", "quadratic_capitulation/",
                   "frobenius_label/", "class_listing/"):
        assert any(name.startswith(prefix) for name in names)


def test_repro_and_verify_twist_tables_report_one_record(capsys):
    rc, doc = run_json(["repro"], capsys)
    assert rc == 0
    assert all(list(item) == ["name", "expected", "computed", "ok"]
               for item in doc["items"])
    for p in (2, 3):
        for n in range(1, 5):
            report = twists.verify_twist_tables(p, n)
            assert list(report) == ["base", "ok", "items"]
            assert report["base"] == f"{p}^{n}" and report["ok"] is True
            prefix = f"twist_tables/{p}^{n}/"
            got = [item for item in doc["items"] if item["name"].startswith(prefix)]
            assert got == [dict(item, name=prefix + item["name"])
                           for item in report["items"]]
            assert json.loads(json.dumps(report)) == report
    for p, n in ((5, 1), (3, 0)):
        with pytest.raises(ValueError):
            twists.verify_twist_tables(p, n)


def test_repro_text_lines(capsys):
    rc, out = run(["repro"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 64
    assert all(line.startswith("pass ") for line in lines[:-1])
    assert lines[-1] == "all 63 items pass"


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(E, base):
        raise RuntimeError("two non-isomorphic curves received one class label")

    monkeypatch.setattr(twists, "enumerate_twists", broken)
    rc = cli.main(["twists", "--p", "3", "--curve", "0,0,0,2,0"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == (
        "internal error: two non-isomorphic curves received one class label\n")


def test_invariant_failure_names_curve_field_and_stage(capsys):
    # two twists of y^2 = x^3 + 2x + 1 over GF(3) receive one class label
    # (the open label-convention defect), which the CLI reports as exit 4
    rc = cli.main(["twists", "--p", "3", "--curve", "0,0,0,2,1"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == (
        "internal error: labelling twists of 0,0,0,2,1 over GF(3): "
        "two non-isomorphic curves received one class label\n")


def test_automorphism_invariant_failure_names_curve_field_and_stage(monkeypatch, capsys):
    # an automorphism search that cannot reach its expected order: the
    # 12 elements of Aut(E) read as 4 units with a kernel of 5
    monkeypatch.setitem(autmap._AUT_SHAPES, (3, 0), (4, 5))
    rc = cli.main(["twists", "--p", "3", "--curve", "0,0,0,2,0"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == (
        "internal error: automorphism group of 0,0,0,2,0 over GF(3): "
        "automorphism search found 12 of 20 elements\n")


_MINUS_ONE_3_2 = "(3^2:2,0,3^2:0,0,3^2:0,0,3^2:0,0)@3^2"


@pytest.mark.parametrize("owner, name, fault, argv, err", [
    (autmap.AutGroup, "index_of_params", lambda self, params: None, ["h1"],
     "Frobenius action on the automorphisms of 0,0,0,2,0 over GF(3): "
     "Frobenius carries an automorphism outside the group"),
    (autmap.AutGroup, "index_of", lambda self, f: None, ["automorphisms"],
     "group structure of 0,0,0,2,0 over GF(3^2): "
     "negation automorphism missing from the group"),
    (autmap, "all_subgroups", lambda G: [], ["h1", "--subgroup", _MINUS_ONE_3_2],
     "cyclic subgroup of 0,0,0,2,0 over GF(3): "
     "cyclic closure missing from the subgroup lattice"),
    (twistcoh, "_values", lambda c: itertools.repeat(1), ["h1"],
     "cocycle order of 0,0,0,2,0 over GF(3): "
     "Cocycle(image=(3^2:1,0,3^2:0,0,3^2:0,0,3^2:0,0)@3^2) "
     "has no trivial value within 24 steps"),
    (twistcoh, "_values", lambda c: itertools.repeat(1), ["twists"],
     "splitting degree of 0,0,0,2,0 over GF(3): "
     "Cocycle(image=(3^2:1,0,3^2:0,0,3^2:0,0,3^2:0,0)@3^2) "
     "does not split within degree 24"),
], ids=["frobenius-action", "negation", "cyclic-closure", "cocycle-order",
        "splitting-degree"])
def test_group_invariant_failures_name_curve_field_and_stage(
        monkeypatch, capsys, owner, name, fault, argv, err):
    # each fault is made to fire by breaking the lookup or walk it guards
    monkeypatch.setattr(owner, name, fault)
    rc = cli.main(argv[:1] + ["--p", "3", "--curve", "0,0,0,2,0"] + argv[1:])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == f"internal error: {err}\n"


def test_repro_detects_regression(monkeypatch, capsys):
    bad = dict(cli._EXAMPLE_KERNELS)
    bad[5] = 2
    monkeypatch.setattr(cli, "_EXAMPLE_KERNELS", bad)
    rc, doc = run_json(["repro"], capsys)
    assert rc == 3
    assert doc["ok"] is False
    failing = [item for item in doc["items"] if not item["ok"]]
    assert len(failing) == 1
    assert failing[0]["name"] == "quadratic_capitulation/5/kernel_size"


def test_text_output_matches_json(capsys):
    rc, doc = run_json(["census", "--p", "2"], capsys)
    assert rc == 0
    rc, out = run(["census", "--p", "2"], capsys)
    assert rc == 0

    def leaves(value, path):
        if isinstance(value, dict):
            for k, v in value.items():
                yield from leaves(v, f"{path}.{k}" if path else str(k))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                yield from leaves(v, f"{path}.{i}" if path else str(i))
        else:
            yield f"{path} = {value}"

    assert out.strip().splitlines() == list(leaves(doc, ""))


def test_json_output_is_stable(capsys):
    args = ["twists", "--p", "3", "--curve", "0,0,0,2,0", "--json"]
    _, first = run(args, capsys)
    _, second = run(args, capsys)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["automorphisms", "--p", "3"],                            # no curve
    ["automorphisms", "--p", "3", "--curve", "0,0,0,2,0",
     "--short", "2,0"],                                       # both forms
    ["twists", "--p", "3", "--curve", "0,0"],                 # wrong arity
    ["twists", "--p", "3", "--n", "2",
     "--curve", "3^2:1,0,0,0"],                               # truncated literal
    ["twists", "--p", "3", "--curve", "0,0,0,0,0"],           # singular
    ["twists", "--p", "4, --curve", "0,0,0,2,0"],             # mangled args
    ["automorphisms", "--p", "4", "--curve", "0,0,0,2,0"],    # p not prime
    ["twists", "--p", "3", "--curve", "0,0,0,2,0",
     "--max-split-degree", "0"],                              # unknown flag
    ["census", "--p", "7"],                                   # unsupported char
    ["bogus"],
    [],
])
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
