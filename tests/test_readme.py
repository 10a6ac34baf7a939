"""The README's examples, run as written.

The ```python blocks run as doctests in one namespace, in order, so a
later block may use an earlier block's imports.  Each `$ coordlat ...`
line of a ```sh block runs through cli.main, and its stdout must equal
the lines under it, up to the next `$` or the end of the block; a block
that ends in `...` is compared as a prefix.
"""
import doctest
import re
import shlex
from pathlib import Path

import pytest

from coordlat.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[tuple[int, list[str]]]:
    """(line number of the first body line, body lines) per fenced block."""
    blocks, body, start = [], None, 0
    for i, line in enumerate(README.read_text().splitlines(), 1):
        if body is None and line == "```" + lang:
            body, start = [], i + 1
        elif body is not None and line == "```":
            blocks.append((start, body))
            body = None
        elif body is not None:
            body.append(line)
    return blocks


def _cli_examples() -> list[tuple[str, list[str], bool]]:
    """(command, expected stdout lines, prefix only) per `$ coordlat` line."""
    examples = []
    for _, body in _blocks("sh"):
        starts = [i for i, line in enumerate(body) if line.startswith("$ coordlat ")]
        for i, j in zip(starts, starts[1:] + [len(body)]):
            expected = body[i + 1 : j]
            prefix = j == len(body) and expected[-1:] == ["..."]
            examples.append((body[i][2:], expected[:-1] if prefix else expected, prefix))
    return examples


def test_python_blocks_run_as_doctests():
    blocks = _blocks("python")
    assert len(blocks) == 3
    globs: dict = {}
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner(verbose=False)
    for lineno, body in blocks:
        test = parser.get_doctest("\n".join(body) + "\n", globs, "README", str(README), lineno)
        runner.run(test, clear_globs=False)
        globs = test.globs  # a DocTest runs on a copy of the globs it is given
    assert runner.summarize(verbose=False).failed == 0


EXAMPLES = _cli_examples()
IDS = [re.sub(r"\W+", "_", c.removeprefix("coordlat ")).strip("_") for c, _, _ in EXAMPLES]


@pytest.mark.parametrize("command, expected, prefix", EXAMPLES, ids=IDS)
def test_cli_example_prints_what_the_readme_shows(capsys, command, expected, prefix):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    want = "".join(line + "\n" for line in expected)
    assert out.startswith(want) if prefix else out == want
