"""README's examples keep up with the code: its imports, and PAPER.md's, resolve, its first
Library example runs, and every ``clonecat`` command it shows parses."""

import importlib
import re
import shlex
import shutil
from pathlib import Path

from clonecat.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PAPER = (ROOT / "PAPER.md").read_text(encoding="utf-8")
DATA_DIR = Path(__file__).parent / "data"


def _blocks(lang: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_python_imports_resolve():
    """Each name that README's and PAPER.md's examples import exists, and is imported from the
    module that defines it, not from one that re-imports it."""
    lines = [line for text in (README, PAPER) for block in _blocks("python", text)
             for line in block.splitlines() if line.startswith("from clonecat")]
    assert lines
    problems = []
    for line in lines:
        module, names = re.fullmatch(r"from (\S+) import (.+)", line).groups()
        imported = importlib.import_module(module)
        for name in (name.split(" as ")[0].strip() for name in names.split(",")):
            if not hasattr(imported, name):
                problems.append(f"{line}: {name} is missing")
            elif getattr(getattr(imported, name), "__module__", module) != module:
                problems.append(f"{line}: {name} is defined in {getattr(imported, name).__module__}")
    assert problems == []


def test_first_library_example_runs(tmp_path, monkeypatch):
    example = _blocks("python", README.split("\n## Library\n", 1)[1])[0]
    shutil.copy(DATA_DIR / "gcd1.java", tmp_path / "a.java")
    shutil.copy(DATA_DIR / "gcd2.java", tmp_path / "b.java")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})


def test_shell_commands_parse():
    commands = [line for block in _blocks("sh") for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("clonecat ")]
    assert commands
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # argparse exits on a bad command
