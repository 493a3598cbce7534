"""The README's examples run as written: the library quick start executes,
every ``qobs`` line of the CLI block parses, the shared-flags table
states what the parser takes, and every error class and fuzz property it
names exists."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import qobs
from qobs import fuzz, linalg
from qobs.cli import _SHARED_FLAGS, _build_parser

from conftest import long_options, subparsers

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, language: str) -> str:
    """The first fenced ``language`` block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```$", body, re.M | re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(_block("Library quick start", "python"), {})
    assert capsys.readouterr().out.strip()  # it prints the report's terms


CLI_LINES = [line for line in _block("Command-line interface", "sh").splitlines()
             if line.startswith("qobs ")]


def test_the_cli_block_has_twelve_qobs_lines():
    assert len(CLI_LINES) == 12


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_parses(line):
    """Optional parts in brackets are given, and the comment is dropped."""
    argv = shlex.split(line.partition("#")[0].replace("[", "").replace("]", ""))
    args = _build_parser().parse_args(argv[1:])
    assert args.command == argv[1]


def test_shared_flags_table_states_each_subcommands_shared_flags():
    """Each row: the subcommands in backticks, and the shared flags that
    each of them (with the parsers under it) takes."""
    table = re.search(r"Each takes only the\s+shared flags[^|]*((?:\|.*\n)+)",
                      README).group(1)
    subcommands = subparsers(_build_parser())
    listed = []
    for row in table.splitlines()[2:]:  # after the header and its rule
        names, flags = row.split("|")[1:3]
        for name in re.findall(r"`([a-z0-9-]+)`", names):
            listed.append(name)
            assert long_options(subcommands[name]) & set(_SHARED_FLAGS) == \
                set(re.findall(r"`--([a-z-]+)`", flags)), name
    assert sorted(listed) == sorted(subcommands)


def test_every_error_class_named_is_exported():
    """A backticked ``...Error``, bare or module-qualified as
    ``errors.QobsError``, is a class the package exports."""
    named = set(re.findall(r"`(?:\w+\.)*(\w+Error)`", README))
    assert named
    assert named - set(vars(qobs)) == set()


def _property_names(text: str) -> set:
    """Each backticked ``a.b`` whose ``a`` begins a fuzz property's name,
    unless ``qobs.a`` is a module with an attribute ``b``."""
    prefixes = {name.split(".")[0] for name in fuzz.CHECKS}
    names = set()
    for a, b in re.findall(r"`(\w+)\.(\w+)`", text):
        try:
            if a not in prefixes or hasattr(importlib.import_module(f"qobs.{a}"), b):
                continue
        except ImportError:
            pass
        names.add(f"{a}.{b}")
    return names


def test_every_property_named_is_a_fuzz_check():
    named = _property_names(README)
    assert "instrument.family" in named
    assert named - set(fuzz.CHECKS) == set()
    assert _property_names("`instrument.adjointness`, `statistics._terms`") == {
        "instrument.adjointness"}


def test_tolerance_table_lists_each_linalg_tolerance():
    """The table under Numerical conventions has one row per
    ``linalg.TOL_*``, each naming one and giving its default."""
    table = re.search(r"^\| knob .*\n\|[-|]+\n((?:\|.*\n)+)", README, re.M).group(1)
    rows = dict(tuple(cell.strip() for cell in row.split("|")[1:3])
                for row in table.splitlines())
    tolerances = {f"`{name}`": value for name, value in vars(linalg).items()
                  if name.startswith("TOL_")}
    assert rows.keys() == tolerances.keys()
    assert {knob: float(default) for knob, default in rows.items()} == tolerances
