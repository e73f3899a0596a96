"""Tuple-command reports, pinned.

The sha256 digests below are of the stdout of in-process ``grplab`` calls
that count or search tuples through the prefix walk and its oracles: exact
mixing counts by the prefix walk and by brute force, a ``count mixing:3``,
the Hindman backtracking search on both sides of its node budget, with and
without ``--nontrivial``, and exact and sampled ``cip`` densities.  They were
recorded before the mixing count and the backtracking search shared one walk,
so any moved count, witness, verdict or ``budget_hit`` flag shows.
"""

from __future__ import annotations

import hashlib
import shlex

import pytest

from grplab.cli import main

# a grplab command line, and the sha256 of its stdout
TUPLE_REPORTS = [
    ('mixing --group "perm:(1 2 3 4);(1 2)" --n 2 --set-all random:0.6,3',
     "1bf8903c974a1b823f28925d4655b69a6f09f5ec45f2c980badbed56ed71efdb"),
    ('mixing --group "perm:(1 2 3 4);(1 2)" --n 2 --set-all random:0.6,3 --engine brute',
     "8dfe100cffc28a76095b47c24d341e6052340413e9f39f83e59b2d9fa95b06fc"),
    ('mixing --group "perm:(1 2 3 4);(1 2)" --n 3 --set-all random:0.6,3',
     "39ed119467c41f3ce210d06534af06e6b48f33f71f6b4f4a44a7d32356d0124b"),
    ('mixing --group "perm:(1 2 3 4);(1 2)" --n 3 --set-all random:0.6,3 --engine brute',
     "cc42742845dd825c20cb75982386a7e0ba64d8eaf34bfe2625c3c4c90a96e2c8"),
    ('mixing --group "Z/2 x Z/6" --n 4 --set-all random:0.8,3',
     "f3373318ceea9ca9726bd268a34a88d3c4e55ab7de37e235e2fd5935aeb37b27"),
    ('mixing --group "Z/2 x Z/6" --n 4 --set-all random:0.8,3 --engine brute',
     "bd639de4dc7121c2cce2355b9ac0ac0aaff1939aace743cb766566d636bca9a2"),
    ('mixing --group "PSL2(5)" --n 4 --set-all random:0.9,1',
     "6af83491398761eb9c0208ccab99cea5340d851fc4acbe5f879c1b6d2315d7b1"),
    ('count --group "PSL2(5)" --equation mixing:3 --sets '
     "random:0.7,0 random:0.7,1 random:0.7,2 random:0.7,3 random:0.7,4 random:0.7,5 random:0.7,6",
     "70128771f168048be306a4903f4ad14e294ddb584f7b2a5a88132725340d34e6"),
    # greedy fails on colours 0 and 1 here, so the backtracking search runs
    ('hindman --group "PSL2(5)" --coloring random:3,3 --n 3 --budget 1',
     "6a5c1235c3c1e00fcefa1df7dd22727fac8c2ea2ac7fedd58333b7a61ac83d31"),
    ('hindman --group "PSL2(5)" --coloring random:3,3 --n 3 --budget 50',
     "f3bb5048330ebaf97cac62efc20338dc53a026f5e2e8f525abd166a8e3e1e7b2"),
    ('hindman --group "PSL2(5)" --coloring random:3,3 --n 3 --budget 5000',
     "9b610332024344af0d20bb4f880495b70a8365b7ddd706e63ebe2b7a57a314d2"),
    ('hindman --group "PSL2(5)" --coloring random:3,3 --n 3 --budget 1 --nontrivial',
     "ec483f30dacfd386fa8ffdc8157e16cd58678637b5642a7f2d6905187458a128"),
    ('hindman --group "PSL2(5)" --coloring random:3,3 --n 3 --budget 50 --nontrivial',
     "1c75968bed84249444f14e6223caa3438ae18fe9ccb6f680f973610f6dcb4c7c"),
    ('hindman --group "PSL2(5)" --coloring random:3,3 --n 3 --budget 5000 --nontrivial',
     "e74539d7cab1cf1c27509bd77909f1ff4e4f663d08609230b4bd6a7c6db9112d"),
    ('hindman --group "PSL2(5)" --coloring random:3,2 --n 4 --budget 3 --nontrivial',
     "109bc52550d84fdaaa590a1cf7029dda511d27da016a2aa6a1186e69c693b6e6"),
    ('hindman --group "PSL2(5)" --coloring random:3,2 --n 4 --budget 50 --nontrivial',
     "ecda4873fa846c994e097b545cb9766f9b1a9c3fd744f156b22190bd19450ae1"),
    # every colour searched to the end inside the budget: no tuple, no budget hit
    ('hindman --group Z/12 --coloring random:3,2 --n 4 --budget 5000 --nontrivial',
     "282a06266580a71cc2a2f0cf2993c74f2da45649de42357901e5a9e1d1615fed"),
    ('cip --group "perm:(1 2 3 4);(1 2)" --k 2 --n 3 --trials 2',
     "651d6d88815fc30a99fdaa52b41369e8670815f9d32c86bb3b19bb5903abf957"),
    ('cip --group "PSL2(5)" --k 3 --n 5 --trials 2 --samples 3000',
     "63e359255c4d9721cc52e4ee92084b861b9b89136c31b958e115c09534da01b2"),
    ('cip --group Z/177 --k 2 --n 6 --trials 1 --samples 2000',
     "79383bdefb288fd000a6f0bcc2028128153ba26f69fd0f46f3011c2ef19dfa22"),
]


@pytest.mark.parametrize("command, digest", TUPLE_REPORTS, ids=[row[0] for row in TUPLE_REPORTS])
def test_tuple_report_is_pinned(command, digest, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
