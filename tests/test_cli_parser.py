"""The one-command parser that ``cli.main`` builds, against the full parser.

``main`` builds ``build_parser(argv[0])``, which registers only the
command that argv names.  The differential tests hold it to the full
parser ``build_parser()``: on every argv both give the same Namespace,
or the same exit code with byte-identical stdout and stderr.  The count
pin fixes how many parsers one ``main`` call builds.
"""

import argparse
import contextlib
import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from nctorus import cli

NAMES = [*cli.COMMANDS, "demo"]


def _option_strings(parser) -> set:
    """Every option string of ``parser`` and of its subparsers, at any depth."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


OPTIONS = sorted(_option_strings(cli.build_parser()))


def _outcome(command, argv):
    """``(namespace, exit code, stdout, stderr)`` of ``build_parser(command)`` on argv."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = cli.build_parser(command).parse_args(argv), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _assert_same_parse(argv):
    full = _outcome(None, argv)
    assert _outcome(argv[0] if argv else None, argv) == full
    return full


CORPUS = [
    [],
    ["--help"],
    ["-h"],
    ["--he"],
    ["bogus"],
    ["--", "lift"],
    ["--json", "lift"],
    *([name, "--help"] for name in NAMES),
    ["demo", "q3torus", "--help"],
    ["lift", "--bogus"],
    ["lift", "--range", "x"],
    ["lift", "--conf"],
    ["lift", "--config"],
    ["lift", "curvature"],
    ["lift", "--config", "lift.json", "--range=2", "--json"],
    ["demo"],
    ["demo", "bogus"],
    ["demo", "q3torus", "--bogus"],
    ["demo", "q3torus", "--random-theta", "--seed", "7"],
]


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_one_command_parser_parses_the_corpus_as_the_full_parser(argv):
    _assert_same_parse(argv)


def test_full_parser_names_the_command_argument():
    # the metavar of the one-command parser must not leak into these errors
    _, code, _, err = _assert_same_parse([])
    assert code == 2 and err.endswith("error: the following arguments are required: command\n")
    _, code, _, err = _assert_same_parse(["bogus"])
    assert code == 2 and "error: argument command: invalid choice: " in err


TOKEN = st.sampled_from(
    [*NAMES, "q3torus", *OPTIONS, "--conf", "--th", "--range=1", "--theta12=1/3",
     "1", "-1", "0", "x", "1/3", "-", "lift.json", "", "bogus", "-x", "---", "--=", "--"]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(NAMES), TOKEN), st.lists(TOKEN, max_size=5))
def test_one_command_parser_parses_drawn_argv_as_the_full_parser(head, tail):
    _assert_same_parse([head, *tail])


def _count_parsers(monkeypatch) -> list:
    """A list that gains one entry per ArgumentParser built; the demo is stubbed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli, "cmd_demo_q3torus", lambda args: {"command": "demo", "passed": True})
    return built


@pytest.mark.parametrize(
    "argv, parsers",
    [
        *(([name, "--json"], 2) for name in cli.COMMANDS),
        (["demo", "q3torus", "--json"], 3),
        (["--help"], 7),
        ([], 7),
        (["bogus"], 7),
        (["lfit", "--json"], 7),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else str(x),
)
def test_main_builds_only_the_invoked_commands_parser(monkeypatch, argv, parsers):
    built = _count_parsers(monkeypatch)
    run_cli(*argv)
    assert len(built) == parsers


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["nctorus", "demo", "q3torus", "--json"])
    assert cli.main() == 0
    assert len(built) == 3
    assert '"passed": true' in capsys.readouterr().out
