"""The help and usage text of the CLI, pinned.

``build_parser`` gives arguments only to the command that the argv runs, and
lists every other command by name and help alone.  These sha256 digests of
(exit code, stdout, stderr), recorded with ``COLUMNS=80`` when every command
got its arguments on every call, fail if that text drifts: the top-level
help, each command's help, a missing required argument, an unknown command,
a command after ``--`` and an unknown option before the command.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from grplab import cli

# argv, and the sha256 of the JSON list [exit code, stdout, stderr]
CLI_TEXT = [
    (['--help'], "4b5cd2813f14b655817e288a902a83dc61f5e57e47acf469feae73452004233b"),
    (['group', '--help'], "58d69007f6771ddeac0a1328a43e68666e52861b42e675f3ae3fe9b70ab8f341"),
    (['stats', '--help'], "c253b1b194070729f63a07b19809b7ebed04217030f21c4ef2cb5dee9b5f5db0"),
    (['count', '--help'], "ba03baadc9f343c6302e39c8cdd72dce81df48e25cb1d70371777d3a59653b88"),
    (['mixing', '--help'], "11cf30c64e4c666a0b328bff28bcac4b94977b3dc3b965d21fd803ff53616177"),
    (['quasirandom', '--help'], "487d935059fda12445a971b05cbd699311e919d35ac012d9f2f0cfe916cb6239"),
    (['schur', '--help'], "a81e19e150ae5e8fcac5b3558c5a3597e983db163434e7aba07c079d31a175f4"),
    (['hindman', '--help'], "9285313ed6b71d213b62cb97f03b9a05593405b0e712a43bf10a0813e7cb0885"),
    (['cip', '--help'], "3f2c3549c66edc9eaf986a27ebbdaef591859f2ae9b1f0355514d47aa9de7f4a"),
    (['regular', '--help'], "808d1d21909e37f897c8c999ab7c7387c954ac8f53e1eb6e084b69173608c9e6"),
    (['rich', '--help'], "bb51429eeb89b245c00ae127b006d8eae8a6cdc7fa48915469406e20f0c2419f"),
    (['sweep', '--help'], "cac758dae0ea6bd8483788c2d62a38fce4c97d1d599697df50aa1d44965c04cd"),
    (['count', '--group', 'Z/5'], "2e1b52532b2ca1b2063d16906bd23388ecde1083c11aa778505702afda7bd603"),
    (['bogus'], "9f24c6878f3d203582ea9796f018ecae62cccf59063cd8af78326e9d955345f3"),
    (['--', 'count', '--group', 'Z/5'], "ed07665f87f729f7b4f1172949b5dc03751075e7279ac6f5ba8c40b3a2f02b7b"),
    (['--bogus', 'count', '--group', 'Z/5', '--sets', 'explicit:0', '--equation', 'ap3'], "a7046ffaf1a008ee54cd4c30f157432e83977257a18ba4e297725cb30af4fa27"),
]


@pytest.mark.parametrize("argv, digest", CLI_TEXT, ids=[" ".join(row[0]) for row in CLI_TEXT])
def test_cli_text_is_pinned(argv, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest() == digest, (code, out, err)


def _argument_counts(argv):
    parser = cli.build_parser(argv)
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    return {name: len(p._actions) for name, p in commands.choices.items()}


def test_the_parser_gives_arguments_only_to_the_command_it_runs():
    # count: -h, --group, --sets, --equation, --engine and the six common
    # flags; a command that never parses gets not even -h
    counts = _argument_counts(["count", "--group", "Z/5"])
    assert counts == {name: 11 if name == "count" else 0 for name in cli._COMMANDS}
    # the command is the first argument that is not an option
    assert _argument_counts(["--", "sweep"])["sweep"] == 7
    assert set(_argument_counts(["--help"]).values()) == {0}
