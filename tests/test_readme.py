"""The README's Python examples and `qiopa` command lines run against the
package as it stands."""

import re
import shlex
from pathlib import Path

from qiopa.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # each line runs in a scratch directory, so `--out` files land there
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("qiopa ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == EXIT_OK, command
        assert capsys.readouterr().err == "", command


def test_readme_text_blocks_are_what_the_cli_prints(capsys):
    # the experiment listing ends `qiopa --help`; a `$ qiopa` line prints the
    # lines after it on stderr
    blocks = re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    listing = [block for block in blocks if block.startswith("experiments, ")]
    assert len(listing) == 1
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("\n\n" + listing[0])
    runs = [block for block in blocks if block.startswith("$ qiopa ")]
    assert runs
    for block in runs:
        command, *want = block.splitlines()
        main(shlex.split(command)[2:])
        assert capsys.readouterr().err.splitlines() == want, command
