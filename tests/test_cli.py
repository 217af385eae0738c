import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import cli
from mmslab.cli import (
    EXIT_BUDGET,
    EXIT_IMPOSSIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    MAX_EXPONENT,
    canonical_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    main,
    parse_frac,
)
from mmslab.core import Instance
from mmslab.counterexamples import CATALOGUE
from mmslab.protocols import MODES
from mmslab.valuations import AdditiveValuation, TableValuation, random_valuation

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def demo3(tmp_path):
    inst = Instance(
        8, tuple(random_valuation("xos", 8, seed=s) for s in (1, 2, 3)), label="demo3"
    )
    path = tmp_path / "demo3.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    return path


def test_builtin_round_trips():
    for name in ("submodular_6", "grid27", "421", "half_cap:2,2,2",
                 "n_minus_1:3", "floor_n3:6"):
        inst = load_instance(name)
        again = instance_from_json(instance_to_json(inst))
        assert again.m == inst.m
        assert all(a == b for a, b in zip(inst.agents, again.agents))


def test_load_instance_unknown():
    with pytest.raises(ValueError):
        load_instance("no_such_thing")


def test_cmd_mms(capsys):
    rc = main(["mms", "421", "--agent", "1", "--d", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("1 :")
    assert "{0}" in out and "{1,2,3}" in out


def test_cmd_mms_budget(capsys):
    rc = main(["mms", "grid27", "--agent", "0", "--d", "3"])
    assert rc == EXIT_BUDGET


def test_cmd_mms_refuses_more_parts_than_any_instance_has_items(capsys):
    # a larger d only pads the partition with empty parts, one list entry each
    for d in ("33", "100000000"):
        assert main(["mms", "421", "--agent", "0", "--d", d]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --d must be at most 32, got {d}\n"
    assert main(["mms", "421", "--agent", "0", "--d", "6"]) == EXIT_OK
    assert capsys.readouterr().out == "0 : ({0}, {1}, {2}, {3}, {}, {})\n"
    assert main(["mms", "421", "--agent", "0", "--d", "32"]) == EXIT_OK


def test_cmd_mms_json(capsys):
    rc = main(["mms", "421", "--agent", "2", "--d", "1", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "1"


def test_solve_verify_loop(tmp_path, demo3, capsys):
    cert = tmp_path / "cert.json"
    rc = main(["solve", str(demo3), "--d", "3,2,2", "--out", str(cert)])
    assert rc == EXIT_OK
    capsys.readouterr()
    rc = main(["verify", str(demo3), str(cert)])
    assert rc == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_solve_deterministic_bytes(tmp_path, demo3, capsys):
    rc = main(["solve", str(demo3), "--d", "3,2,2"])
    assert rc == EXIT_OK
    first = capsys.readouterr().out
    rc = main(["solve", str(demo3), "--d", "3,2,2"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == first
    # and the payload is canonical
    assert first == canonical_json(json.loads(first))


def test_verify_rejects_tampered(tmp_path, demo3, capsys):
    cert = tmp_path / "cert.json"
    main(["solve", str(demo3), "--d", "3,2,2", "--out", str(cert)])
    capsys.readouterr()
    payload = json.loads(cert.read_text())
    payload["allocation"][0] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = main(["verify", str(demo3), str(bad)])
    assert rc == EXIT_VERIFY
    assert "agent 0" in capsys.readouterr().err


def test_solve_impossible(demo3, capsys):
    rc = main(["solve", str(demo3), "--d", "2,2,2"])
    assert rc == EXIT_IMPOSSIBLE
    assert "n_minus_1" in capsys.readouterr().err


def test_solve_one_half_half_route(demo3, capsys):
    rc = main(["solve", str(demo3), "--alpha", "one-half-half", "--d", "4,2,2"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == ["1", "1/2", "1/2"]
    assert payload["trace"][0]["protocol"] == "422"


def test_solve_two_agents(tmp_path, capsys):
    inst = Instance(6, tuple(random_valuation("coverage", 6, seed=s) for s in (1, 2)))
    path = tmp_path / "two.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    rc = main(["solve", str(path), "--d", "2,2"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] in (["1/2", "1"], ["1", "1/2"])
    # the agent with the larger demand proposes; here the first one
    rc = main(["solve", str(path), "--d", "2,1"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == ["1", "1/2"]
    # both agents demanding one part is hopeless
    rc = main(["solve", str(path), "--d", "1,1"])
    assert rc == EXIT_IMPOSSIBLE
    capsys.readouterr()


def test_solve_four_agents(tmp_path, capsys):
    inst = Instance(9, tuple(random_valuation("xos", 9, seed=s) for s in (3, 4, 5, 6)))
    path = tmp_path / "four.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    rc = main(["solve", str(path), "--d", "3,3,4,4"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == ["1/2"] * 4
    exits = [s for s in payload["trace"] if s.get("step") == "exit"]
    assert len(exits) == 1


def test_solve_two_types(tmp_path, capsys):
    vS = random_valuation("additive", 8, seed=10)
    vT = random_valuation("additive", 8, seed=11)
    inst = Instance(8, (vS, vT, vS, vT, vS), label="five")
    path = tmp_path / "five.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    rc = main(["solve", str(path), "--d", "5,5,5,5,5"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == ["1/2"] * 5


def test_solve_rejects_three_distinct_at_five(tmp_path, capsys):
    agents = tuple(random_valuation("additive", 8, seed=s) for s in range(5))
    inst = Instance(8, agents)
    path = tmp_path / "bad5.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    rc = main(["solve", str(path), "--d", "5,5,5,5,5"])
    assert rc == EXIT_USAGE


def test_check_class(capsys):
    rc = main(["check-class", "submodular_6"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "submodular: true" in out


def test_counterexamples_table(capsys):
    rc = main(["counterexamples", "--all"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    rows = [line for line in out.strip().splitlines()]
    assert len(rows) == 8
    assert all("pass" in line for line in rows)


def test_oracle_best_alpha(capsys):
    rc = main(["oracle", "submodular_6", "--d", "3,3,3", "--best-alpha"])
    assert rc == EXIT_OK
    assert "best alpha: 2/3" in capsys.readouterr().out


def test_oracle_exists_and_not(capsys):
    rc = main(["oracle", "421", "--d", "4,2,1", "--alpha", "1/2,1/2,1/2"])
    assert rc == EXIT_OK
    assert "not exists" in capsys.readouterr().out
    rc = main(["oracle", "421", "--d", "4,2,1", "--alpha", "1/3,1/3,1/3"])
    assert rc == EXIT_OK
    assert "exists" in capsys.readouterr().out


def test_oracle_requires_alpha(capsys):
    rc = main(["oracle", "421", "--d", "4,2,1"])
    assert rc == EXIT_USAGE


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve"])
    assert err.value.code == EXIT_USAGE


def test_partitions_file(tmp_path, demo3, capsys):
    parts = [
        [[0, 1, 2], [3, 4], [5, 6, 7]],
        [[0, 1, 2, 3], [4, 5, 6, 7]],
        [[0, 2, 4, 6], [1, 3, 5, 7]],
    ]
    pfile = tmp_path / "parts.json"
    pfile.write_text(json.dumps(parts))
    rc = main(["solve", str(demo3), "--d", "3,2,2", "--partitions", str(pfile)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["partitions"][0] == [[0, 1, 2], [3, 4], [5, 6, 7]]


@pytest.mark.parametrize(
    "agents, d",
    [
        ([random_valuation("additive", 12, seed=s) for s in (20, 21, 22, 23)], "3,3,4,4"),
        ([random_valuation("additive", 10, seed=24)] * 5, "5,5,5,5,5"),
    ],
)
def test_solve_one_half_half_refused_beyond_three(tmp_path, capsys, agents, d):
    # no protocol here gives (1, 1/2, ...) to four or more agents: refuse,
    # never hand back the uniform-1/2 certificate instead
    path = tmp_path / "many.json"
    path.write_text(json.dumps(instance_to_json(Instance(agents[0].m, tuple(agents)))))
    rc = main(["solve", str(path), "--alpha", "one-half-half", "--d", d])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "one-half-half" in captured.err
    assert main(["solve", str(path), "--d", d]) == EXIT_OK


@pytest.mark.parametrize(
    "instance",
    [
        {"agents": [{"class": "additive", "weights": ["1", "2"]}]},
        {"m": "2", "agents": [{"class": "additive", "weights": ["1", "2"]}]},
        {"m": 2.5, "agents": [{"class": "additive", "weights": ["1", "2"]}]},
        {"m": 0, "agents": []},
        {"m": 2},
        {"m": 2, "agents": [{"class": "subadditive", "table": {"4": "1"}}]},
        {"m": 2, "agents": [{"class": "subadditive", "table": {"-1": "1"}}]},
        [2, []],
        # nested values of the wrong type
        {"m": 4, "agents": [{"class": "subadditive", "builtin": "max_block_thirds",
                             "blocks": 5}]},
        {"m": 4, "agents": [{"class": "xos", "clauses": [5]}]},
        {"m": 4, "agents": [{"class": "additive", "weights": "1234"}]},  # not 1, 2, 3, 4
        {"m": 4, "agents": [{"class": "coverage", "builtin": "coverage",
                             "covers": ["1", "2", "3", "4"]}]},
        {"m": 4, "agents": [{"class": "subadditive", "table": [0, 1]}]},
        {"m": 4, "agents": [{"class": "subadditive", "bundles": [[0, 1], 2],
                             "inner_tables": []}]},
        {"m": 4, "agents": [{"class": "submodular", "builtin": "budget_additive",
                             "weights": ["1"] * 4}]},
        {"m": 4, "agents": [{"class": "additive", "weights": ["1/0", "1", "1", "1"]}]},
        {"m": 4, "agents": [{"class": "additive", "weights": ["1e10000000", "1", "1", "1"]}]},
        {"m": 4, "agents": [[1, 2, 3, 4]]},
        # a half-cap block past item m-1 made the agent worth 1/2 everywhere, 0 worth 1
        {"m": 4, "agents": [{"class": "subadditive", "builtin": "half_cap", "blocks": [1024]}]},
        {"m": 4, "agents": [{"class": "subadditive", "builtin": "half_cap", "blocks": [0]}]},
    ],
)
def test_malformed_instance_is_one_error_line(tmp_path, capsys, instance):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(instance))
    rc = main(["mms", str(path), "--agent", "0", "--d", "2"])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_table_keys_in_range_load(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        {"m": 2, "agents": [{"class": "subadditive", "table": {"1": "1/2", "3": "1"}}]}
    ))
    assert main(["mms", str(path), "--agent", "0", "--d", "2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("0 :")


@pytest.mark.parametrize(
    "change",
    [
        lambda cert: [1, 2],
        lambda cert: {k: v for k, v in cert.items() if k != "alpha"},
        lambda cert: {k: v for k, v in cert.items() if k != "allocation"},
        lambda cert: {k: v for k, v in cert.items() if k != "partitions"},
        lambda cert: dict(cert, alpha="1/2"),
        lambda cert: dict(cert, allocation={"0": [0]}),
        lambda cert: dict(cert, partitions=None),
        lambda cert: dict(cert, alpha=cert["alpha"][:2]),
        lambda cert: dict(cert, allocation=cert["allocation"] + [[]]),
        lambda cert: dict(cert, partitions=cert["partitions"][:1]),
        # nested values of the wrong type
        lambda cert: dict(cert, allocation=[5, *cert["allocation"][1:]]),
        lambda cert: dict(cert, allocation=[["1"], *cert["allocation"][1:]]),
        lambda cert: dict(cert, partitions=[*cert["partitions"][:2], 7]),
        lambda cert: dict(cert, partitions=[*cert["partitions"][:2], [0, 1, 2, 3]]),
    ],
)
def test_malformed_certificate_is_one_error_line(tmp_path, demo3, capsys, change):
    cert = tmp_path / "cert.json"
    assert main(["solve", str(demo3), "--d", "3,2,2", "--out", str(cert)]) == EXIT_OK
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(change(json.loads(cert.read_text()))))
    rc = main(["verify", str(demo3), str(bad)])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("blocks", [[15], [3], [7, 14], [7 << 2]])
def test_max_block_thirds_rejects_blocks_that_are_not_disjoint_triples(tmp_path, capsys, blocks):
    # a 4-item block, a 2-item block, overlapping blocks, a block past item m-1
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"m": 4, "agents": [
        {"class": "subadditive", "builtin": "max_block_thirds", "blocks": blocks}
    ]}))
    rc = main(["mms", str(path), "--agent", "0", "--d", "1"])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _solve_with_partitions(tmp_path, capsys, agents, d, partitions):
    """(exit code, certificate payload or None, stderr) of one solve, verified."""
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(instance_to_json(Instance(agents[0].m, tuple(agents)))))
    parts = tmp_path / "p.json"
    parts.write_text(json.dumps(partitions))
    cert = tmp_path / "c.json"
    rc = main(["solve", str(inst), "--d", ",".join(map(str, d)), "--partitions", str(parts),
               "--out", str(cert)])
    err = capsys.readouterr().err
    if rc != EXIT_OK:
        return rc, None, err
    assert main(["verify", str(inst), str(cert)]) == EXIT_OK
    capsys.readouterr()
    return rc, json.loads(cert.read_text()), err


def _coarsened_agents(payload) -> list[int]:
    return [s["agent"] for s in payload["trace"] if s["step"] == "coarsen"]


def test_two_agent_route_coarsens_the_proposers_partition(tmp_path, capsys):
    unit = AdditiveValuation([1] * 4)
    rc, payload, _ = _solve_with_partitions(
        tmp_path, capsys, [unit, unit], [3, 3], [[[0], [1], [2, 3]], [[0, 1], [2], [3]]]
    )
    assert rc == EXIT_OK
    assert _coarsened_agents(payload) == [1]
    assert payload["partitions"][1] == [[0, 1], [2, 3]]


def test_3344_route_coarsens_a_five_part_partition(tmp_path, capsys):
    agents = [random_valuation("additive", 10, seed=s) for s in (1, 2, 3, 4)]
    partitions = [
        [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]],
        [[0, 3, 6], [1, 4, 7], [2, 5, 8, 9]],
        [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
        [[0, 4], [1, 5], [2, 6], [3, 7, 8, 9]],
    ]
    rc, payload, _ = _solve_with_partitions(tmp_path, capsys, agents, [3, 3, 5, 4],
                                            partitions)
    assert rc == EXIT_OK
    assert payload["trace"][0] == {"step": "dispatch", "protocol": "3344",
                                   "agent_order": [0, 1, 3, 2]}
    assert _coarsened_agents(payload) == [2]
    assert [len(p) for p in payload["partitions"]] == [3, 3, 4, 4]


def test_two_types_route_coarsens_an_extra_part(tmp_path, capsys):
    vS = random_valuation("additive", 8, seed=10)
    vT = random_valuation("xos", 8, seed=11)
    five = [[0, 1], [2, 3], [4], [5], [6, 7]]
    six = [[0], [1], [2, 3], [4], [5], [6, 7]]
    rc, payload, _ = _solve_with_partitions(tmp_path, capsys, [vS, vT, vS, vT, vS],
                                            [5] * 5, [five, six, five, five, five])
    assert rc == EXIT_OK
    assert _coarsened_agents(payload) == [1]
    assert [len(p) for p in payload["partitions"]] == [5] * 5


@pytest.mark.parametrize("d, partitions", [
    ([3, 3], [[[0], [1], [2, 3]], [[0, 1, 2, 3]]]),  # the proposer has one part
    ([5, 5, 5, 5, 5], [[[0, 1], [2, 3]]] * 5),
])
def test_partition_with_fewer_parts_than_its_role_is_refused(tmp_path, capsys, d, partitions):
    unit = AdditiveValuation([1] * 4)
    rc, _, err = _solve_with_partitions(tmp_path, capsys, [unit] * len(d), d, partitions)
    assert rc == EXIT_USAGE
    assert err.startswith("error: partition for agent ") and "parts, got" in err


def test_oracle_output_keeps_its_fields_with_search_node_counts(capsys):
    # `nodes` is a result field, not part of the command's output
    rc = main(["oracle", "floor_n3:6", "--d", "6,6,6,6,6,2",
               "--alpha", "1/100,1/100,1/100,1/100,1/100,1/2", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"exists": False, "visited": 6**6 + 1, "space": 6**6,
                       "pruned": 7**6 - 6**6}


def _run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_COMMANDS = ("mms", "solve", "verify", "check-class", "counterexamples", "oracle")


@pytest.mark.parametrize(
    "argv",
    [["-h"], [], ["nope"], ["solv", "421"], ["-h", "solve"],
     ["mms", "421", "--agent", "1", "--d", "2", "extra"]]
    + [[c, "-h"] for c in _COMMANDS]
    + [[c, "--format", "xml"] for c in _COMMANDS]
    + [["mms", "421"], ["solve", "421"], ["verify", "421"], ["check-class"],
       ["counterexamples", "--bogus"], ["oracle", "421"]],
)
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    # main builds only the named command's subparser; the text must not show it
    got = _run(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == _run(argv, capsys)
    assert got[0] in (EXIT_OK, EXIT_USAGE)


def test_repeated_solve_in_one_process_gives_identical_certificate_bytes(tmp_path, capsys):
    # d = (5, 3, 3) with 5- and 3-part partitions is coarsened to the 322 route
    agents = tuple(random_valuation(c, 9, seed=7) for c in ("additive", "xos", "coverage"))
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(instance_to_json(Instance(9, agents))))
    parts = tmp_path / "p.json"
    parts.write_text(json.dumps([[[0], [1, 2], [3], [4, 5], [6, 7, 8]],
                                 [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
                                 [[0, 3, 6], [1, 4, 7], [2, 5, 8]]]))
    certs = []
    for k in range(2):
        cert = tmp_path / f"c{k}.json"
        rc = main(["solve", str(inst), "--d", "5,3,3", "--partitions", str(parts),
                   "--out", str(cert)])
        assert rc == EXIT_OK
        certs.append(cert.read_bytes())
    assert certs[0] == certs[1]
    payload = json.loads(certs[0])
    assert [len(p) for p in payload["partitions"]] == [3, 2, 2]
    assert [s["agent"] for s in payload["trace"] if s["step"] == "coarsen"] == [0, 0, 1, 2]
    assert main(["verify", str(inst), str(tmp_path / "c0.json")]) == EXIT_OK
    capsys.readouterr()


def test_module_entry_point_reads_sys_argv():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mmslab.cli", *argv], cwd=ROOT,
                              capture_output=True, text=True, env=env, timeout=60)

    usage = run("--help")
    assert usage.returncode == EXIT_OK, usage.stderr
    assert all(name in usage.stdout for name in _COMMANDS)
    value = run("mms", "421", "--agent", "1", "--d", "2")
    assert value.returncode == EXIT_OK, value.stderr
    assert value.stdout.startswith("1 : ")


@pytest.mark.parametrize("argv, expected", [
    (["mms", "n_minus_1", "--agent", "0", "--d", "1"], "n_minus_1 takes one int argument"),
    (["mms", "floor_n3", "--agent", "0", "--d", "1"], "floor_n3 takes one int argument"),
    (["mms", "421:5", "--agent", "0", "--d", "1"], "421 takes no arguments"),
    (["mms", "grid27:1/2,3", "--agent", "0", "--d", "1"],
     "grid27 takes at most one Fraction argument"),
    (["check-class", "half_cap:"], "half_cap takes one or more int arguments"),
    (["check-class", "half_cap:2,x"], "half_cap takes one or more int arguments"),
    (["mms", "grid27:1/0", "--agent", "0", "--d", "1"],
     "grid27 takes at most one Fraction argument"),
    (["mms", "n_minus_1:10000000000", "--agent", "0", "--d", "1"], "need 2..33 agents"),
])
def test_builtin_with_wrong_arguments_is_one_error_line(capsys, argv, expected):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert expected in captured.err


@pytest.mark.parametrize("argv", [
    ["oracle", "421", "--d", "4,2,1", "--alpha", "1e10000000,1/2,1/2"],
    ["oracle", "421", "--d", "4,2,1", "--alpha", "1/2,1/2,1E-10000000"],
    ["oracle", "grid27:1e10000000", "--d", "3,3,3", "--alpha", "1,1/2,1/2"],
])
def test_a_huge_exponent_is_one_error_line_before_it_is_built(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["1e4300,1/2,1/2", "1e4299,1/2,1/2"])
def test_a_long_threshold_is_clipped_in_its_error_line(capsys, alpha):
    assert main(["oracle", "421", "--d", "4,2,1", "--alpha", alpha]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: thresholds must lie in [0, 1], got 1000")
    assert captured.err.count("\n") == 1 and len(captured.err) < 100


@pytest.mark.parametrize("argv, option", [
    (["oracle", "421", "--d", "4,2,1", "--alpha", "1" * 5000 + ",1/2,1/2"], "--alpha"),
    (["solve", "421", "--d", "1" * 5000 + ",2,1"], "--d"),
])
def test_a_literal_past_the_digit_limit_names_its_argument(capsys, argv, option):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: {'1' * 40!r} has more than {MAX_EXPONENT} digits\n"
    assert "set_int_max_str_digits" not in captured.err


_SPACE = st.sampled_from(["", " ", "\t", "\n ", "\u3000"])
# ASCII, Arabic-Indic and superscript digits (the last are no decimal digits)
_DIGITS = st.sampled_from(
    ["0", "7", "12", "007", "1_000", "1__0", "\u0661\u0662", "\u00b2", "3\u00b2"]
)


@st.composite
def _rational_literals(draw):
    """JSON scalars, or text shaped like a `Fraction` literal with every part
    optional: sign, p/q, decimals, an exponent within `MAX_EXPONENT`."""
    kind = draw(st.sampled_from(("json", "literal", "text")))
    if kind == "json":
        return draw(st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats())
    if kind == "text":  # no exponent letter: a random one could be unbounded
        return draw(st.text(alphabet="0123456789+-/._ \u00b2\u0661", max_size=8))
    body = draw(st.sampled_from(["", "-", "+"])) + draw(_DIGITS)
    tail = draw(st.sampled_from(["", "/", ".", "e", "E", ".e"]))
    if tail == "/":
        tail += draw(_DIGITS)
    elif tail.startswith("."):
        tail = "." + draw(st.sampled_from(["", "5", "25", "\u0661"])) + tail[1:]
    if tail.endswith(("e", "E")):
        tail += draw(st.sampled_from(["", "-", "+"])) + str(draw(st.integers(0, MAX_EXPONENT)))
    return draw(_SPACE) + body + tail + draw(_SPACE)


@settings(max_examples=300)
@given(_rational_literals())
def test_parse_frac_reads_what_fraction_reads(s):
    try:
        expected = Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        expected = ValueError
    try:
        got = parse_frac(s)
    except ValueError:
        got = ValueError
    assert got == expected and type(got) is type(expected)


def test_subadditivity_witness_from_solve_is_one_error_line(tmp_path, capsys):
    # agent 1 is worth 1 on every set holding {0,1,2} or {3,4,5} and 1/100 on
    # other nonempty sets, so no 3-of-5 cut halves both of its parts
    unit = AdditiveValuation([1] * 6)
    table = [0] + [1 if mask & 7 == 7 or mask & 56 == 56 else Fraction(1, 100)
                   for mask in range(1, 64)]
    agents = [unit, TableValuation(6, table, declared_class="subadditive"), unit]
    rc, _, err = _solve_with_partitions(
        tmp_path, capsys, agents, [5, 2, 1],
        [[[0], [1], [2], [3], [4, 5]], [[0, 1, 2], [3, 4, 5]], [[0, 1, 2, 3, 4, 5]]],
    )
    assert rc == EXIT_USAGE
    assert err == ("error: subadditivity violated: no 3-of-5 cut halves both parts: "
                   "v({0,1}) + v({0,2}) = 1/100 + 1/100 < 1 = v({0,1,2})\n")


@pytest.mark.parametrize("d", ["0,2", "-1,2", "2,0,2", "0,3,3,4"])
def test_demands_below_one_are_refused_on_every_route(tmp_path, capsys, d):
    n = d.count(",") + 1
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(instance_to_json(Instance(8, (AdditiveValuation([1] * 8),) * n))))
    assert main(["solve", str(path), f"--d={d}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: demand entries must be positive")


_FRACTIONS = ("1/100", "1/4", "1/2")


@st.composite
def _cli_requests(draw):
    """(argv, instance, partitions, whether a demand is below one) for `mms` on a
    builtin with a random argument string, or for `solve` on random table
    agents, not necessarily subadditive, at random demands."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(CATALOGUE)))
        if draw(st.booleans()):
            name += ":" + draw(st.text(alphabet="0123456789-/,.e", max_size=6)
                               | st.lists(st.integers(-1, 4), max_size=4).map(
                                   lambda xs: ",".join(map(str, xs))))
        return ["mms", name, "--agent", str(draw(st.integers(-1, 3))),
                "--d", str(draw(st.integers(-1, 3))), "--max-states", "1000"], None, None, False
    m = draw(st.integers(3, 6))
    n = draw(st.integers(2, 4))
    agents = []
    for _ in range(n):
        # worth 1 on every superset of a block, low elsewhere: often not subadditive
        blocks = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=3))
        raw = draw(st.lists(st.sampled_from(_FRACTIONS), min_size=1 << m, max_size=1 << m))
        table = [Fraction(0)]
        for mask in range(1, 1 << m):  # monotone: at least each one-item-smaller set
            below = max(table[mask & ~(1 << g)] for g in range(m) if mask >> g & 1)
            block = any(mask & b == b for b in blocks)
            table.append(Fraction(1) if block else max(below, Fraction(raw[mask])))
        agents.append({"class": "subadditive",
                       "table": {str(mask): str(x) for mask, x in enumerate(table)}})
    d = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    if draw(st.sampled_from((False, False, True))):  # now and then a demand below one
        d[draw(st.integers(0, n - 1))] = draw(st.integers(-1, 0))
    partitions = None
    if draw(st.booleans()):
        # d_i parts dealt round-robin from a random item order
        partitions = [[sorted(order[k::d_i]) for k in range(d_i)] if d_i > 0 else [order]
                      for d_i, order in zip(d, (draw(st.permutations(range(m))) for _ in d))]
    argv = ["solve", "INSTANCE", "--alpha", draw(st.sampled_from(MODES)),
            "--d=" + ",".join(map(str, d))]
    return argv, {"m": m, "agents": agents}, partitions, min(d) < 1


@settings(max_examples=150)
@given(_cli_requests())
def test_fuzzed_requests_exit_with_a_code_and_never_a_traceback(request):
    argv, instance, partitions, low_demand = request
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        if instance is not None:
            argv[1] = os.path.join(tmp, "i.json")
            Path(argv[1]).write_text(json.dumps(instance))
        if partitions is not None:
            argv += ["--partitions", os.path.join(tmp, "p.json")]
            Path(argv[-1]).write_text(json.dumps(partitions))
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in range(5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if low_demand:
        assert rc == EXIT_USAGE, argv
