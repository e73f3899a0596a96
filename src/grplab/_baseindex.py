"""The dense index of a group acting on points, for
:class:`grplab.groups.PointImageGroup`: a greedy base of the action, and the
tables that find an element by its images of that base.

It is a module of its own, imported by the first point-image group built,
so that a command on other groups does not compile it and ``groups`` stays
small to compile: under CPython 3.11, compiling a module took about 0.55 MB
more peak memory once it passed about 8192 tokens (seen between 7957 and
8241), and without a bytecode cache every process that imported ``groups``
with this code in it kept about 0.4 MB more resident set.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .errors import NotAGroup


def greedy_base(images: np.ndarray) -> List[int]:
    """A base of the group whose elements are the rows of ``images``: each
    point the least one whose images split the classes of the elements that
    agree on the points before it, until every element stands alone.  A
    point that the earlier base images fix stays fixed, so each point is
    tried once, one sort each.  A base of fewer than two points is padded
    by repeating one, so the index always has a first and a last level."""
    n, width = images.shape
    base: List[int] = []
    node = np.zeros(n, dtype=np.int64)
    classes = 1
    for point in range(width):
        if classes == n:
            break
        live, node = np.unique(node * width + images[:, point], return_inverse=True)
        if len(live) > classes:
            base.append(point)
            classes = len(live)
    if classes < n:
        raise NotAGroup("the point images do not separate the elements")
    return base if len(base) > 1 else (base or [0]) * 2


def base_index(columns: np.ndarray, width: int) -> Tuple[int, List[np.ndarray]]:
    """(depth, tables): the dense index of the elements by their images of
    a base, ``columns[i]`` holding every element's image of b_i.

    The nodes of level i are the classes of elements that agree on
    b_0..b_i, numbered in order; level 0's are the images of b_0.  Level
    i >= 1 reads slot node*width + (image of b_i) of a table with one row
    per node of level i - 1, plus a dead row from level 2 on.  Its slots
    hold the next node times width, or the element index at the last level,
    and the dead entry where no element reaches: the dead node, or -1 at the
    last level.  The first table reads the images of the first ``depth``
    points at once, as one base-width number, for as long as its
    width**depth slots are no more than the slots of the level tables it
    replaces, so depth >= 2 and every later table is a level's.  The index
    never has more slots than one table a level."""
    k, n = columns.shape
    node, rows = columns[0].astype(np.intp), width
    levels = []  # (slots, each element's slot, its entry, the dead entry) a level from 1 on
    for column in columns[1:-1]:
        slot = node * width + column
        live = np.zeros(rows * width, dtype=bool)
        live[slot] = True
        node = np.cumsum(live)[slot] - 1
        count = np.count_nonzero(live)
        levels.append((rows * width, slot, node * width, count * width))
        rows = count + 1
    levels.append((rows * width, node * width + columns[-1], np.arange(n), -1))
    depth = 2
    while depth < k and width ** (depth + 1) <= sum(size for size, *_ in levels[:depth]):
        depth += 1
    key = columns[0].astype(np.intp)
    for column in columns[1:depth]:
        key *= width
        key += column
    tables = []
    for size, slot, entry, dead in [(width**depth, key, *levels[depth - 2][2:])] + levels[depth - 1:]:
        table = np.full(size, dead, dtype=np.intp)
        table[slot] = entry
        tables.append(table)
    return depth, tables
