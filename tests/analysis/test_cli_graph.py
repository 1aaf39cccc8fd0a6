"""The ``repro graph`` and ``repro lint --graph`` CLI surfaces.

These run against the repository's own source tree (the CLI resolves
the project root), so they double as end-to-end smoke tests of the
whole-program analysis on real code.
"""

import json

import pytest

from repro.cli import main


def test_lint_graph_is_clean(capsys):
    assert main(["lint", "--graph"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_graph_rejects_explicit_paths(capsys):
    assert main(["lint", "--graph", "src/repro/cli.py"]) == 2
    assert "--graph" in capsys.readouterr().err


def test_lint_sarif_format(capsys):
    assert main(["lint", "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"GRAPH001", "GRAPH002", "GRAPH003", "LINT001"} <= rule_ids
    assert run["results"] == []


def test_graph_effects_on_cached_solver(capsys):
    assert main(["graph", "effects", "blahut_arimoto"]) == 0
    out = capsys.readouterr().out
    assert "cached_solve target" in out
    assert "transitively pure" in out


def test_graph_calls_lists_edges(capsys):
    assert main(["graph", "calls", "ExperimentRunner.run"]) == 0
    out = capsys.readouterr().out
    assert "calls:" in out


def test_graph_why_prints_witness(capsys):
    assert main(["graph", "why", "ExperimentRunner.run", "filesystem"]) == 0
    out = capsys.readouterr().out
    assert "ExperimentRunner.run" in out
    assert "└─" in out


@pytest.mark.parametrize(
    "function,effect",
    [("blahut_arimoto", "clock"), ("blahut_arimoto_batch", "env")],
)
def test_graph_why_unreachable_exits_one(capsys, function, effect):
    assert main(["graph", "why", function, effect]) == 1
    assert "does not transitively reach" in capsys.readouterr().out


def test_graph_unknown_function_exits_two(capsys):
    assert main(["graph", "calls", "no_such_function_xyz"]) == 2
    assert "no_such_function_xyz" in capsys.readouterr().err


def test_graph_ambiguous_suffix_lists_candidates(capsys):
    # Bare "run" matches several functions; the CLI must list them.
    code = main(["graph", "calls", "run"])
    err = capsys.readouterr().err
    if code == 2:
        assert "ambiguous" in err or "matches" in err
    else:  # a unique resolution is also acceptable if the repo changes
        assert code == 0
