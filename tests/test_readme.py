"""The README's examples run as written.

The python quickstart block is executed as is. Each ``pfgames`` line of the
CLI block runs through ``cli.main`` in a fresh directory, after the block's
heredoc has written ``showcase.json``; every line must exit 0 except the one
documented with ``# exit code 1``.
"""

import re
import shlex
from pathlib import Path

from pfgames import cli

from .corpus import refuse_fraction_tables

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language):
    text = README.read_text()
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def cli_block():
    (block,) = [b for b in fenced_blocks("sh") if "pfgames " in b]
    return block


def test_python_quickstart_runs():
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def run_cli_block(capsys, monkeypatch, tmp_path):
    block = cli_block()
    script = re.search(r"<<'EOF'[^\n]*\n(.*?)^EOF$", block, flags=re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(script, "README.md", "exec"), {})
    assert (tmp_path / "showcase.json").exists()

    commands = block.split("\nEOF\n", 1)[1].replace("\\\n", " ")
    ran = []
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        assert argv[0] == "pfgames", line
        expected = 1 if "# exit code 1" in line else 0
        code = cli.main(argv[1:])
        capsys.readouterr()
        assert code == expected, line
        ran.append(argv[1])
    assert len(ran) >= 6
    assert "verify" in ran


def test_cli_block_runs(capsys, monkeypatch, tmp_path):
    run_cli_block(capsys, monkeypatch, tmp_path)


def test_cli_block_builds_no_fraction_table(capsys, monkeypatch, tmp_path):
    """The exact commands read each family's integer tables alone."""
    refuse_fraction_tables(monkeypatch)
    run_cli_block(capsys, monkeypatch, tmp_path)
