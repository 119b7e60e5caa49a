"""Plot and bijection driver for the ``plot-bijections`` workload.

Mirrors acceptance criteria 6 and 7 at sizes the benchmark chooses:

    python perfbench/plotdriver.py peaks SEED COUNT SIZE
    python perfbench/plotdriver.py psi WORD
    python perfbench/plotdriver.py phi WORD

``peaks`` compares the plot-extracted insertion factors with the tree-route
factors on COUNT seeded permutations of 1..SIZE.  ``psi`` and ``phi`` run
every input of a colour word (comma-separated) through the bijection, check
the factor multiset and the round trip, and check that the images are
exactly the enumerated family.  Each prints one line ending in ``ok`` or
``FAIL`` and exits 0 or 1.

Library calls go through module attributes so that a tracer patching the
``troupes`` modules sees them.
"""

from __future__ import annotations

import random
import sys

from troupes import bijections, peaks, trees


def check_peaks(seed: int, count: int, size: int) -> bool:
    rng = random.Random(seed)
    ok = True
    for _ in range(count):
        sigma = tuple(rng.sample(range(1, size + 1), size))
        got = trees.labeled_multiset_key(peaks.factors_from_plot(sigma))
        want = trees.labeled_multiset_key(peaks.tree_factors_for_comparison(sigma))
        ok = ok and got == want
    return ok


def check_psi(word: tuple[int, ...]) -> tuple[int, bool]:
    ok = True
    images = []
    for x in bijections.iter_psi_inputs(word):
        t = bijections.psi(x)
        factors = trees.multiset_key(trees.insertion_factors(t))
        ok = ok and factors == tuple(sorted(trees.encode(b) for b in x.branches))
        ok = ok and bijections.psi_inverse(t).key() == x.key()
        images.append(trees.encode(t))
    family = sorted(trees.encode(t) for t in trees.iter_bpt_word(word))
    return len(images), ok and sorted(images) == family


def check_phi(word: tuple[int, ...]) -> tuple[int, bool]:
    ok = True
    images = []
    for x in bijections.iter_phi_inputs(word):
        lt = bijections.phi(x)
        factors = trees.multiset_key([f.tree for f in trees.labeled_insertion_factors(lt)])
        ok = ok and factors == tuple(sorted(trees.encode(b) for b in x.branches))
        ok = ok and bijections.phi_inverse(lt).key() == x.key()
        images.append(trees.encode_labeled(lt))
    family = sorted(trees.encode_labeled(lt) for lt in trees.iter_dbpt_word(word))
    return len(images), ok and sorted(images) == family


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "peaks":
        seed, count, size = map(int, argv[1:])
        ok = check_peaks(seed, count, size)
        print(f"peaks {size} {count} {'ok' if ok else 'FAIL'}")
    elif len(argv) == 2 and argv[0] in ("psi", "phi"):
        word = tuple(int(c) for c in argv[1].split(","))
        count, ok = (check_psi if argv[0] == "psi" else check_phi)(word)
        print(f"{argv[0]} {argv[1]} {count} {'ok' if ok else 'FAIL'}")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
