"""Every CLI subcommand must be documented.

Guards against the recurring drift where a new subcommand lands in
``build_parser`` but neither the module docstring's usage block nor
``docs/usage.md`` mentions it.
"""

import argparse
import os

import repro.cli as cli

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs")


def _subcommands():
    parser = cli.build_parser()
    actions = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert actions, "CLI has no subparsers?"
    names = sorted(actions[0].choices)
    assert names, "CLI has no subcommands?"
    return names


def test_parser_exposes_known_commands():
    names = _subcommands()
    # Spot-check the anchors; the full list may grow.
    for expected in ("hpcg", "solve", "figures", "bench"):
        assert expected in names


def test_every_subcommand_in_module_docstring():
    doc = cli.__doc__ or ""
    missing = [n for n in _subcommands() if n not in doc]
    assert not missing, (
        f"subcommands absent from repro.cli docstring: {missing}")


def test_every_subcommand_in_usage_docs():
    with open(os.path.join(DOCS, "usage.md")) as fh:
        text = fh.read()
    missing = [n for n in _subcommands() if n not in text]
    assert not missing, (
        f"subcommands absent from docs/usage.md: {missing}")


def test_every_subcommand_has_help_text():
    parser = cli.build_parser()
    action = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)][0]
    helps = {ca.dest: ca.help for ca in action._choices_actions}
    for name in _subcommands():
        assert helps.get(name), f"subcommand {name!r} has no help text"


def test_bench_all_documented():
    assert "bench" in _subcommands()
    assert "bench all" in (cli.__doc__ or "")
    with open(os.path.join(DOCS, "usage.md")) as fh:
        assert "bench all" in fh.read()
    with open(os.path.join(DOCS, "regression.md")) as fh:
        text = fh.read()
    # The regression doc must cover the whole workflow surface.
    for needle in ("--update-references", "machine", "tolerance",
                   "references/", "ratchet"):
        assert needle in text, f"docs/regression.md misses {needle!r}"

