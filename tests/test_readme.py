import re
import shlex
from pathlib import Path

from ishtc.cli import COMMANDS, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    """The README's Python example runs as written against the package's top level."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["x_best"].shape == (1000,)


def test_readme_commands_parse():
    """Every `ishtc <sub> ...` line of the README's shell block is accepted by
    the CLI's parser (joined across backslash continuations, not run)."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)[1:] for line in text.splitlines()
                if line.startswith("ishtc ")]
    assert {argv[0] for argv in commands} == set(COMMANDS)
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
