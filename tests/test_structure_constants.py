"""Pin the structure constants that ``build_algebra`` computes.

Each digest covers the basis paths, the full ``mult_basis`` table, the unit
gids, ``pair_pos`` and the arrow matrices of every projective.  A reduced
row echelon form is unique, so a builder that reduces the same rows in the
same column order must reproduce these bytes exactly; every silting count,
Hasse check and exploration digest rests on them.
"""

import hashlib
import json

import pytest

from silt import orders
from silt.algebra import Quiver, build_algebra, presentation


def commutative_square(p=32003):
    q = Quiver(("1", "2", "3", "4"),
               (("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")))
    return build_algebra(presentation(q, [[(1, ("a", "b")), (-1, ("c", "d"))]], 3), p)


def square_with_double_arrow(p=32003):
    # two arrows 1 -> 2 make the paths 1 -> 4 arrive from two groups whose
    # words interleave in lex order, so the basis depends on sorting them
    q = Quiver(("1", "2", "3", "4"),
               (("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4"),
                ("e", "1", "2")))
    return build_algebra(presentation(q, [[(1, ("a", "c")), (-1, ("b", "d"))]], 3), p)


def structure_digest(alg) -> str:
    nv, dim = alg.quiver.n_vertices, alg.dimension
    doc = {
        "basis": [[b.src, b.tgt, list(b.path)] for b in alg.basis],
        "mult": [[sorted(alg.mult_basis(g1, g2).items()) for g2 in range(dim)]
                 for g1 in range(dim)],
        "units": [alg.unit_gid(v) for v in range(nv)],
        "pair_pos": [alg.pair_pos(g) for g in range(dim)],
        "projectives": [[m.tolist() for m in alg.projective(v).arrow_maps]
                        for v in range(nv)],
    }
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


CASES = {
    **{f"hereditary-{n}": (lambda n=n: orders.hereditary_reduction(n)) for n in range(1, 6)},
    **{f"auslander-{n}": (lambda n=n: orders.auslander_bass_v_reduction(n))
       for n in range(0, 5)},
    "nakayama-3-5": lambda: orders.cyclic_nakayama(3, 5),
    "nakayama-4-12": lambda: orders.cyclic_nakayama(4, 12),
    "triangular_a2": orders.triangular_example_reduction,
    "bass_v": orders.bass_v_reduction,
    "commutative-square": commutative_square,
    "square-with-double-arrow": square_with_double_arrow,
}

# recorded at the parent of the one-table builder, p = 32003
DIGESTS = {
    "auslander-0": "cfadda7a5e9c0de443598f8ee84d2cee8d10a4a7e80c51ed2c26b5f621010357",
    "auslander-1": "b7fe8de6dcebe23d148f2bdacb1e0c35cc03e3139a711013f690160fcadfc548",
    "auslander-2": "060742a62f2a62279d1181d24eb05f73eef6a9f8ee9103fc70fd1714b485116a",
    "auslander-3": "6ce3254f7bc7d10880649c8359e4d4782e9d71db573bd2d9c72c59beb0f41db9",
    "auslander-4": "57ad3bf42fdb8653db8589961f4837a1ae1bad7ea9c9ae1354eeb42869a7cce7",
    "bass_v": "b7fe8de6dcebe23d148f2bdacb1e0c35cc03e3139a711013f690160fcadfc548",
    "commutative-square": "47e79e04443c9d1366b9b2af2f7b9be8490ce970a277ebba5ec5a1093787f6e1",
    "hereditary-1": "f5dae544367db20a329b56a1f5eb465bb665902655bb65915488567a4abf6975",
    "hereditary-2": "b7fe8de6dcebe23d148f2bdacb1e0c35cc03e3139a711013f690160fcadfc548",
    "hereditary-3": "2d8dc7932ab978cbed725afde0bdd86db40d21d3d13cb5a645e7cbbdc7d95f73",
    "hereditary-4": "78c4779e39f1f4817b07191ec399a0ffb96b64e5ebd75259429878ccd7d0353d",
    "hereditary-5": "8472d066317baab845bd9d4eaefff7ea3b376d634cb61ead4fef18949ff3057f",
    "square-with-double-arrow": "6bef50846697d6d1fa42e62c00b27672bcf713999daa51b301d5141a646c52cd",
    "nakayama-3-5": "17a734595c7114e6daa7a29f050b3e6eaa2d27f9b5298a61d68b5765353e5885",
    "nakayama-4-12": "d32665133f7e0283264f44b4dccaf4fb3539bbf0bb75040505fbf9bcf8bfa498",
    "triangular_a2": "b77af588ea06419e9937004ef76ada84b4c71372548b5b776a9e9dc71b27249a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_structure_constants_digest(name):
    assert structure_digest(CASES[name]()) == DIGESTS[name]
