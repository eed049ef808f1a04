"""The README's CLI block runs as written.

Each command of the ```sh block under "## CLI" (its backslash continuations
joined, its comments dropped) runs through cli.main in a fresh directory and
must exit 0, so the block cannot drift from the CLI it documents.
"""

import shlex
from pathlib import Path

from rekbench.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_block_commands():
    """The argv lists of the CLI block's commands, without the leading 'rekbench'."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "rekbench", line
            commands.append(argv[1:])
    return commands


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = cli_block_commands()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
