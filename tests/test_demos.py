"""Each narrated walkthrough under demos/, and the README's Python quick
start, runs to completion; the README's `pycon` and `console` examples print
what they show."""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import whilesem
from whilesem.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "check_certificate" in block
    exec(compile(block, "README.md (Python quick start)", "exec"), {})


def test_readme_pycon_blocks_pass_doctest():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```pycon\n")[1:]]
    assert len(blocks) >= 4
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for k, block in enumerate(blocks):
        globs = {name: getattr(whilesem, name) for name in whilesem.__all__}
        runner.run(parser.get_doctest(block, globs, f"README.md pycon block {k}", "README.md", 0))
    assert runner.summarize(verbose=False).failed == 0


def test_readme_console_examples_match(capsys, tmp_path, monkeypatch):
    """Each `$ whilesem …` line of the *Command line* block, run in a fresh
    directory, prints the lines shown under it.  The first command naming a
    program file shows that file's text as a comment; it is written out
    first.  `elapsed:` lines and everything after a `...` line are not
    compared.  Rule files are named from the repository root."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```console\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    examples = re.findall(r"^\$ whilesem (.+?)\n((?:(?!\$ ).*\n)*)", block.replace("\\\n", ""), re.M)
    assert len(examples) >= 15
    for command, shown in examples:
        command, _, comment = command.partition("  # ")
        argv = shlex.split(command)
        if comment:
            (name,) = [arg for arg in argv if arg.endswith(".whl")]
            assert not (tmp_path / name).exists(), f"{name} is shown twice"
            (tmp_path / name).write_text(comment.strip() + "\n", encoding="utf-8")
        main(argv)
        printed = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("elapsed:")]
        expected = [line for line in shown.rstrip("\n").splitlines() if not line.startswith("elapsed:")]
        if "..." in expected:
            expected = expected[: expected.index("...")]
            printed = printed[: len(expected)]
        assert printed == expected, f"whilesem {command}"
    written = {path.name for path in tmp_path.glob("*.whl")}
    assert written == {"fac.whl", "spin.whl", "grow.whl", "catch.whl", "gate.whl", "countdown.whl"}
