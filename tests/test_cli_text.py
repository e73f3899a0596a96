"""The help and usage text of the CLI, pinned.

``build_parser`` gives arguments only to the command that the argv runs, and
lists every other command by name and help alone.  These sha256 digests of
(exit code, stdout, stderr), recorded with ``COLUMNS=80`` when every command
got its arguments on every call, fail if that text drifts: the top-level
help, each command's help, a missing required argument, an unknown command,
a command after ``--`` and an unknown option before the command.  The eleven
command helps were recorded again when ``--threads`` got its help line,
their only change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from grplab import cli

# argv, and the sha256 of the JSON list [exit code, stdout, stderr]
CLI_TEXT = [
    (['--help'], "4b5cd2813f14b655817e288a902a83dc61f5e57e47acf469feae73452004233b"),
    (['group', '--help'], "5b4bbbb75301459013022242c15009136d1180a549db7ffa58da7f9a7b4fca6e"),
    (['stats', '--help'], "0cc4b6d25bcb3d29714403474bbe3df078d8cd6935c3ca76d4ed28f5f43a38a3"),
    (['count', '--help'], "d2643991bcafffd571e3d09b88ba95c4e25e1185863324b728ca7df85d089145"),
    (['mixing', '--help'], "7622eb6c4467d4ef8302abd5fd3c4bad1ecbb744de5d82a9d8063a45a9b30dbd"),
    (['quasirandom', '--help'], "1b23dae2c58112348f34fc16e838587b6f8a2ca649714db1b35966fbc4d546cf"),
    (['schur', '--help'], "3f0853d00de059abd96aaff27e743863a38407e478b818930403675ff2dc5315"),
    (['hindman', '--help'], "960e7360e4f55f91ccc3ab9274ad597b77540f1708bcb7e367b59a822cb435da"),
    (['cip', '--help'], "608c1b534f282f39ffdd0828ae316c5057437e95a70bd89a2180f18c8430eca3"),
    (['regular', '--help'], "5f316e638275c6ee08cf4c5c52593d92843be4c9fdfa9becd3676478b89a2ddd"),
    (['rich', '--help'], "1b94bfc0844a34f819b8f88fe9eb45bb83abdd001a74e45dd7fe95203b5615c4"),
    (['sweep', '--help'], "4873f62c7fb84705e52c26926e2c4ae5fb0eca1ae357822389ce1ede13a1e04b"),
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
