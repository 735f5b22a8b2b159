"""README's CLI examples must parse with the real argument parser (nothing
is run: each line only goes through `parse_args`), and each test it cites
must exist."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from rateadapt.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples():
    """Every `rateadapt ...` line of the first sh block under README's
    `## CLI` heading, with backslash continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("rateadapt ")]


def test_every_command_has_an_example():
    commands = {shlex.split(line)[1] for line in cli_examples()}
    assert commands == {"train", "eval", "sweep", "ccdf"}


@pytest.mark.parametrize("line", cli_examples(), ids=lambda line: line.split()[1])
def test_example_parses(line):
    argv = shlex.split(line.replace("<run>", "train_20260101T000000Z"))[1:]
    try:
        _build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README example does not parse (exit {exc.code}): {line}")


def test_every_cited_test_exists():
    # A fold or rename that retires a pin README cites fails here until
    # README cites the pin that replaces it.
    cited = re.findall(r"tests/(\w+\.py)::(\w+)", README.read_text(encoding="utf-8"))
    assert cited
    for file, name in cited:
        tree = ast.parse((README.parent / "tests" / file).read_text(encoding="utf-8"))
        tests = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name.startswith(("test_", "Test"))}
        assert name in tests, f"README cites tests/{file}::{name}, which is not a test"
