"""The ``NamedTuple`` records against frozen-dataclass twins, and the plain
``(color, left, right)`` tuple of every vertex the tree builders make."""

import functools
import itertools
import random

import pytest

from troupes.bijections import (
    PhiInput,
    PsiInput,
    iter_phi_inputs,
    iter_psi_inputs,
    phi,
    phi_inverse,
    psi,
)
from troupes.cumulants import (
    ConditionCheck,
    CumulantTable,
    EquivalenceReport,
    MomentFunctional,
    Verification,
    cumulants_to_moments,
    equivalence_reports,
    moments_to_cumulants,
)
from troupes.families import NAMED_SEQUENCES, NamedSequence
from troupes.partitions import SetPartition, iter_partitions
from troupes.troupe import from_table, random_branch_table
from troupes.trees import (
    ColoredTree,
    LabeledTree,
    alpha_inverse,
    branch_from_directions,
    insert,
    iter_bpt_word,
    iter_branch_word,
    iter_dbpt,
    iter_dbpt_word,
)

from oracles import druns, frozen_dataclass_twin


RECORD_CLASSES = (ColoredTree, LabeledTree, SetPartition, PsiInput, PhiInput,
                  MomentFunctional, CumulantTable, ConditionCheck, EquivalenceReport,
                  Verification, NamedSequence)


@functools.lru_cache(maxsize=None)
def _seeded_records():
    """A few records of every class, drawn from seeded color words."""
    rng = random.Random(11)
    words = [tuple(rng.randrange(2) for _ in range(n)) for n in (1, 2, 3, 4, 5)]
    trees = [t for w in words for t in iter_bpt_word(w)]
    labeled = [lt for w in words for lt in iter_dbpt_word(w)]
    verification = equivalence_reports(from_table(random_branch_table(3, 2, 2)), [0, 1], 3, 5)
    reports = verification.reports
    boolean = CumulantTable("boolean", (0, 1), 2, {
        w: rng.randint(-3, 3) for n in (1, 2) for w in itertools.product((0, 1), repeat=n)})
    moments = cumulants_to_moments(boolean)
    return {
        ColoredTree: trees,
        LabeledTree: labeled,
        SetPartition: [p for n in (1, 2, 3, 4) for p in iter_partitions(n)],
        PsiInput: list(iter_psi_inputs((0, 1, 0, 1))) + list(iter_psi_inputs((0, 0, 0, 0))),
        PhiInput: list(iter_phi_inputs((0, 1, 0, 1))) + list(iter_phi_inputs((0, 0, 0, 0))),
        MomentFunctional: [moments, moments._replace(max_len=1)],
        CumulantTable: [boolean, moments_to_cumulants(moments, "free"),
                        moments_to_cumulants(moments, "boolean")],
        ConditionCheck: [c for r in reports for c in r.checks],
        EquivalenceReport: reports,
        Verification: [verification, verification._replace(series_failure=""),
                       verification._replace(reports=reports[:2])],
        NamedSequence: list(NAMED_SEQUENCES.values()),
    }


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:  # a record holding a dict is unhashable either way
        return type(exc)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    twin = frozen_dataclass_twin(cls)
    records = _seeded_records()[cls]
    assert len(records) >= 2 and all(type(r) is cls for r in records)
    twins = [twin(*r) for r in records]
    for r, tw in zip(records, twins):
        assert repr(r) == repr(tw)
        assert _hash_or_error(r) == _hash_or_error(tw)
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.extra = None
    pairs = list(zip(records, twins))
    for (a, ta), (b, tb) in itertools.product(pairs, repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


def _assert_tree_records(t):
    assert type(t) is ColoredTree and type(t.nodes) is tuple
    for nd in t.nodes:
        assert type(nd) is tuple and len(nd) == 3
        color, left, right = nd
        assert type(color) is int
        assert all(c is None or type(c) is int for c in (left, right))


def _assert_labeled_records(lt):
    assert type(lt) is LabeledTree
    _assert_tree_records(lt.tree)


def test_every_builder_makes_node_records():
    rng = random.Random(5)
    for n in range(1, 7):
        word = rng.sample(range(1, n + 1), n)
        colors = [rng.randrange(3) for _ in range(n)]
        _assert_labeled_records(alpha_inverse(word, colors, box_color=1))
        for t in iter_bpt_word(colors + [2]):
            _assert_tree_records(t)
            for v in range(t.size):
                _assert_tree_records(insert(t, v, t))
        directions = [rng.choice("LR") for _ in range(n - 1)]
        _assert_tree_records(branch_from_directions(directions, colors, 1))
    for word in ((0, 1, 0, 1), (1, 0, 0, 1, 1)):
        for x in iter_psi_inputs(word):
            _assert_tree_records(psi(x))
        for x in iter_phi_inputs(word):
            lt = phi(x)
            _assert_labeled_records(lt)
            back = phi_inverse(lt)
            assert type(back) is PhiInput
            for b in back.branches:
                _assert_tree_records(b)
        for b in iter_branch_word(word):
            _assert_tree_records(b)
        for t, _ in iter_dbpt(word):
            _assert_tree_records(t)
    assert type(druns((3, 1, 2))) is SetPartition
