"""Each narrated walkthrough under demos/, and the README's Python quick
start, runs to completion; the README's `pycon` examples print what they
show."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import whilesem

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
