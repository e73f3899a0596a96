"""Group and field construction, pinned and checked against oracles.

The sha256 digests below were recorded from the element-by-element
constructions that the whole-array ones replaced, so any change of an
element index, a label or a field table shows.  The oracles are those
element-by-element constructions, kept here in plain Python: the scalar
determinant scan of SL2(q), the breadth-first closure of permutation tuples
and the divisibility search for the least irreducible modulus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from grplab.gf import PrimePowerField
from grplab.groups import build_group, parse_group_spec
from grplab.rng import SplitMix64

from conftest import _gf_scalar_ops, _int_to_poly, _poly_trim, traced_peak

# q -> (order, digest of the indexing)
PSL2_DIGESTS = {
    2: (6, "ca481d0f0ed83bb099867db7bbf1e0a1bd8c3347ffeb7bed28c236ade58dc3cd"),
    3: (12, "300a877bef7575e67093a21cd10142265eec194bfab7ac87558206c3c42d8075"),
    4: (60, "197348b921376e50e15332a99c89861fc2862e753462aef53b85478b26cd84f2"),
    5: (60, "7828ddc3a3c5f6f700e1fbee08e7090b95f8b77dc92aacf479c090faa395181c"),
    7: (168, "763834d258d415e0e956e5887185af27aa4545e9d876df0aa02365529d2a4765"),
    8: (504, "bac1ae77096751fc20c463c38602ee5e96d4691d3e5fdd00347a57d45b8b2635"),
    9: (360, "2e6ddf54bc07a50b2af9cf094eb8c99bea5779f922f8901196a9f7bbd01602d9"),
    11: (660, "4ad2cf878482be836d92b859f6a778cefb211782bd2eaa4e88a0fb9ce1f99568"),
    13: (1092, "93e9bfab56378816c1d22e16fe420de1be8a45b2c6df073d4d85dcc30056d041"),
    16: (4080, "490910672bb8b08b01fc0942a5fede3125e6e748d6513ea6e26d7d70791b0fea"),
    17: (2448, "8d7d3a1a445dc378e6f67eec63a56f7d6ef173e5df44077264d038730b6b8a10"),
    19: (3420, "e9f1dfb673d6f8d9041f2b4ef9f8aa41473cab52030101a47d55e290a17e8206"),
    25: (7800, "6082757bdeb4c3a7c18dee594852413c3cd7cde149b6622347bb564221f6cd55"),
    27: (9828, "45d0d641ac8f16e05fa0db37bf2f6a411df5fc4e65c00acd85f177640916cca6"),
    29: (12180, "3776399b876030237033c6dfc34e13d2da19fad7ca8cc9265b47378396f51e61"),
    32: (32736, "36393a3e30f8e1089e77a6e2399607354a8eb46b901a6fc0f90c27086eb46964"),
    49: (58800, "aeefdabc40d3155aac9df6d0aa37be652bde040e6a29b60ca5d26c12fde7f9d3"),
    73: (194472, "8bfd49a2571002bd2713796afd873177b720fae9e823f0a8a7cd75b92e903879"),
}

# spec -> (order, is_abelian, digest of the indexing)
PERM_DIGESTS = {
    "perm:(2 3)": (2, True, "fc7a3232f0d484ea2643d366a223e849e644f533bc746a422db6ef5800333aa4"),
    "perm:(1 2)(3 4);(5 6 7)": (6, True, "df71c78994f58ac427c7267e92e721415192daca39122d421b7f20783a79409e"),
    "perm:(1 2 3);(1 2)": (6, False, "0db3aeb7f293bed1c6ee51812ed9698e6b36498652a28a614bd894c65cde7418"),
    "perm:(1 2 3 4);(1 3)": (8, False, "8fd425528bd14a855dfb6eac11bfb42f42220846b8accbc33bb6d33d884d1e39"),
    "perm:(1 2 3);(1 2)(3 4)": (12, False, "610b976922571554827872427c7b559c4936331edbbcfbee1e2f873de37964db"),
    "perm:(1 2 3 4);(1 2)": (24, False, "08f01ac6cd669b3d8f1d808b211b79a124d170fae3a37e0cff9f24726ee22a8c"),
    "perm:(1 2 3 4 5);(1 2 3)": (60, False, "607bfe330336bdebae5fdad3a0db2db38c24409ad5634ec7c5ffc0f55ea6e96c"),
    "perm:(1 2 3 4 5);(1 2)": (120, False, "0ddd10fde09e0b1c4b30415e389fd062a361738d4521951d4fbea9f3bde1a060"),
    "perm:(1 2 3 4 5 6);(1 2)": (720, False, "7b3a1234e2ca40ea12ade8fe19bef08d049bbe1ab12c39b06b12672f44b6ba9a"),
    "perm:(1 2 3 4 5 6 7);(1 2)": (5040, False, "11909d4a4d20715fa1ee3b7dba14abd21fc240c42422048b039fbffd08717c28"),
    # the Mathieu group M11
    "perm:(1 2 3 4 5 6 7 8 9 10 11);(3 7 11 8)(4 10 5 6)": (
        7920, False, "f004fd81881b099483eb0a7bba74f58fd73bc600b962414b5909263c1a8fad61"
    ),
    "perm:(1 2 3 4 5 6 7 8);(1 2)": (40320, False, "9e53f8cfd76c479a0b8a69f5502717e9369efbdea8bbe798f2118263a243d197"),
    # A9: a 3-cycle and a 9-cycle
    "perm:(1 2 3);(1 2 3 4 5 6 7 8 9)": (
        181440, False, "2402b6e12fbf8576a128a2da54cec96a0ece5602cfae7c2a19018e128f8b97d0"
    ),
}

# q -> (modulus, digest of the add, mul, neg and inv tables)
GF_DIGESTS = {
    2: (None, "815be8e281aec4a4aab8740907e6931df3086d83679f2fcd3cddbc3406ab8ca3"),
    3: (None, "b6bf4c47d7378f613e3feac47ea9f35a625b345f21cde387ae83d01c9b8bc975"),
    4: ((1, 1, 1), "b5ffd6d8f0ef2fa863ed451dca7d2537c8f254df5b2db52383852644ada3d190"),
    5: (None, "7b441a32e5fc49249823611963b3c669acb0c2999f802ad3279ee4151168998a"),
    7: (None, "7fe3ba438e4544a507a7104b1cbd0b986af2dd94a07fec31b0b8066ef4cbf61c"),
    8: ((1, 1, 0, 1), "ab4f61119344afe8bfb07626b572909464a8186069f436cc2a30ba1ef63b7fef"),
    9: ((1, 0, 1), "bdff17b34deb9a9fdd0f8506e183dfbb7b52364e3025625b1772138fc01d6783"),
    11: (None, "f5ed7a615f033d001d12551735a66cc664290ae4f6e8aecf9e70bd02140a7c44"),
    13: (None, "85cf7640b461bbbd667957ffdd14ecf37146a9827649cda3215549c3cb5d8973"),
    16: ((1, 1, 0, 0, 1), "cac34b8a9d3ec2e8c9d1b97226842f3d5ec136e82fc519af0a5ec2ccc83ae00a"),
    17: (None, "df64fe60bd6ba4c829b0c7f64d64c21f29b0fbe89c36404fa1875c28607f4766"),
    19: (None, "e878f25501bb9cdae5ede736392778064b41c69bfd7e684f7d1f2d89c56cf2c5"),
    23: (None, "519e87078b39bf3e45bba90360f6b1ea6f7e24a4182c587e6d323c5f6fd8eb9e"),
    25: ((2, 0, 1), "2f20eefdae6007eb338457ba184ecc311a55c80927753e70b99c7b52ff4df627"),
    27: ((1, 2, 0, 1), "47aba24a97d3cfa46c50973c95ab4f735731d65bd9a27548b0962d17537fd120"),
    29: (None, "f419ca715c909f073cb601f69e9150563bc9b09c06c07b05d80d687e5680fa56"),
    31: (None, "7bd0f525e840fa99206718409834f75cf895fbbc30f4471ecbe417d7730c102b"),
    32: ((1, 0, 1, 0, 0, 1), "7809742f442e04a2c605d9952c39032dedd5767a5b6f94f9103107d7ccd5bec8"),
    37: (None, "c6dbcd7d32255443541b451b7249ca80f666743a70801fa6056b050ec6b03f53"),
    41: (None, "8fb7f51b1c6248208a7a1942b3d4aa037b0d9d3288df2dd220eb01865b001c2e"),
    43: (None, "c6bbbefa53553873395941177c4fd21edd4d00f34b8a020a8201806c923ac40e"),
    47: (None, "dca72a0a756c7060c6f666ddc68256cea67468677900878c0c6eed37cf78e511"),
    49: ((1, 0, 1), "a0061b1e8014fdecf6b669a959cd6db4e0b19a1f08e2a868bb17e63e212e1856"),
    53: (None, "7326d18b543caa87b1268364cbc4c9724f2ef468fd5cb03ecd2c926c0002c33e"),
    59: (None, "86d4bf1922e850221f25ee5c3e46f40aae78e4dd6c1bd696662e94b9d8853aa4"),
    61: (None, "6b735021745beb21532c26663515c59a681c3e4452b639cae86524663ba71320"),
    64: ((1, 1, 0, 0, 0, 0, 1), "5c62a09fe49dde0dc69489ca9689bac52e594db53c19a1780a13ab641147a79c"),
    67: (None, "e3d6186370c2b6dfd1e07e13c1c3f42ec956d6a8674f257ed4c4840e4545efc3"),
    71: (None, "57ef304882101a99bb8850486adba97231a5f4cc9cc19eb62c2942b7a32ba9e8"),
    73: (None, "cf1c1ea2d85eb2c87706eba83bce1188206f80e2fe42020bbc174a126227228a"),
    79: (None, "395bbde1c33a6d4d4ee7cbeb93e5feeb7b9efb1a54ffe12d0d3a5bdf2b30de61"),
    81: ((2, 1, 0, 0, 1), "01e2c199ebbf802218d0bc9fde9e33244a1ae1643d2c7c8992dab7d0f061d889"),
    83: (None, "55233c96140af012159c7f9af68798cc16ff3f5d99c99e5ff13a6c0bcf46b2b1"),
    89: (None, "ed776782392e8ad36ebd150569335544a64010fe27b74f1d1c5d3d4afe684f75"),
    97: (None, "54231e4a938ec55341516f9cb1abc15c40b8b24c2433cac81c658efd0ec404f5"),
    101: (None, "86d28fd514bb6b81d4794c0e237e9edc7864ebe03e6ceb046e9134a80a638845"),
    103: (None, "11919a483fd39612ca8f7865bab82ec38583a3357df6f272d697735ce4daf5ba"),
    107: (None, "852cff5e21ade8086f494ecfbb1f6b2030309ff7bb74b9cc0611d14d318b0864"),
    109: (None, "a8739189748383cc73e6df1996e2f69049a698a0952ba5b3fef1725fd2738c72"),
    113: (None, "1026023331db90474341933dc463251566861bc742844cfe8bf4265fcfaba535"),
    121: ((1, 0, 1), "2d2b10546305c6a3aa8a035b99707cb0740b465f296a05c1a3394e2837d377e1"),
    125: ((1, 1, 0, 1), "992fc3c4564846667aa512e8c3f712cbf5d8569c7b97295bfdcc3889ddff477e"),
}


def _indexing_digest(g) -> str:
    """sha256 of the inverse table, 4096 seeded products and 512 labels."""
    n = g.order
    x = SplitMix64(n).randrange_array(n, 4096)
    y = SplitMix64(n + 1).randrange_array(n, 4096)
    h = hashlib.sha256()
    h.update(g.inverse_table.astype(np.int32).tobytes())
    h.update(g.mul_arrays(x, y).astype(np.int64).tobytes())
    h.update("|".join(g.element_label(int(i)) for i in x[:512]).encode())
    return h.hexdigest()


def _field_digest(f) -> str:
    h = hashlib.sha256()
    for table in (f.add_table, f.mul_table, f.neg_table, f.inv_table):
        h.update(np.asarray(table, dtype=np.int32).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("q", sorted(PSL2_DIGESTS))
def test_psl2_indexing_is_pinned(q):
    g = build_group(f"PSL2({q})")
    assert (g.order, _indexing_digest(g)) == PSL2_DIGESTS[q]


@pytest.mark.parametrize("spec", PERM_DIGESTS)
def test_permutation_indexing_is_pinned(spec):
    g = build_group(spec)
    assert (g.order, g.is_abelian, _indexing_digest(g)) == PERM_DIGESTS[spec]


@pytest.mark.parametrize("q", sorted(GF_DIGESTS))
def test_field_tables_are_pinned(q):
    f = PrimePowerField(q)
    assert (f.modulus, _field_digest(f)) == GF_DIGESTS[q]


# GF(1024) digest of the mul table, the add table and the modulus, recorded
# from the build that held every unreduced product at once (325 MB)
GF1024_DIGEST = "3912611093aa987c2639df1ef2795d8a7b26af3ad191492aed34f0ece31a8972"


def test_large_field_is_pinned_and_built_in_bounded_memory():
    f, peak = traced_peak(lambda: PrimePowerField(1024))
    h = hashlib.sha256()
    for table in (f.mul_table, f.add_table):
        h.update(np.asarray(table, dtype=np.int32).tobytes())
    h.update(repr(f.modulus).encode())
    assert f.modulus == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
    assert h.hexdigest() == GF1024_DIGEST
    assert peak < 64 * 2**20


# oracles: the element-by-element constructions


def _sl2_by_det_scan(field):
    """PSL2(q) as canonical entry tuples in index order: every (a, b, c, d)
    with ad - bc = 1 by scalar field arithmetic, the smaller of M and -M,
    then the identity first and the rest sorted."""
    add, mul, neg = _gf_scalar_ops(field)
    q = field.q
    classes = set()
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if add(mul(a, d), neg(mul(b, c))) == 1:
                        m = (a, b, c, d)
                        classes.add(min(m, tuple(neg(e) for e in m)))
    identity = (1, 0, 0, 1)
    return [identity] + sorted(classes - {identity})


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_psl2_closed_form_matches_the_determinant_scan(q):
    g = build_group(f"PSL2({q})")
    assert list(zip(*(v.tolist() for v in g._mats))) == _sl2_by_det_scan(g.field)


def _tuple_closure(spec):
    """Breadth-first closure of the generators' image tuples, one product at
    a time; the index order is the identity first, then the rest by key,
    i.e. lexicographically on image tuples."""
    generators = parse_group_spec(spec).generators
    degree = max(max(c) for cycles in generators for c in cycles)
    gens = []
    for cycles in generators:
        images = list(range(degree))
        for cycle in cycles:
            for i, pt in enumerate(cycle):
                images[pt - 1] = cycle[(i + 1) % len(cycle)] - 1
        gens.append(tuple(images))
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for perm in frontier:
            for g in gens:
                product = tuple(perm[g[x]] for x in range(degree))
                if product not in seen:
                    seen.add(product)
                    nxt.append(product)
        frontier = nxt
    abelian = all(
        tuple(g[h[x]] for x in range(degree)) == tuple(h[g[x]] for x in range(degree)) for g in gens for h in gens
    )
    return [identity] + sorted(seen - {identity}), abelian


@pytest.mark.parametrize("spec", [s for s, (order, _, _) in PERM_DIGESTS.items() if order <= 8000])
def test_layered_closure_matches_the_tuple_closure(spec):
    g = build_group(spec)
    elements, abelian = _tuple_closure(spec)
    assert [tuple(row) for row in g.images.tolist()] == elements
    assert g.is_abelian == abelian


def _poly_divides(d, f, p):
    """Whether monic d divides f over F_p, by long division."""
    rem = list(f)
    while len(_poly_trim(tuple(rem))) >= len(d):
        rem = list(_poly_trim(tuple(rem)))
        shift = len(rem) - len(d)
        coef = rem[-1]
        for j in range(len(d)):
            rem[shift + j] = (rem[shift + j] - coef * d[j]) % p
    return not any(rem)


def _least_irreducible_by_division(p, k):
    """The first monic x^k + tail, tails by increasing index, with no monic
    divisor of degree 1..k/2."""
    def monic(tail, deg):
        return _int_to_poly(tail, p) + (0,) * (deg - len(_int_to_poly(tail, p))) + (1,)

    for tail in range(p**k):
        f = monic(tail, k)
        if not any(_poly_divides(monic(t, deg), f, p) for deg in range(1, k // 2 + 1) for t in range(p**deg)):
            return f


@pytest.mark.parametrize("q", [q for q, (modulus, _) in GF_DIGESTS.items() if modulus] + [243, 256, 343, 625])
def test_modulus_matches_the_divisibility_search(q):
    f = PrimePowerField(q)
    assert f.modulus == _least_irreducible_by_division(f.p, f.k)
