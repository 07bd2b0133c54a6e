"""The package's immutable value classes, all subclasses of bitvec.Record."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from unarynet import bitvec
from unarynet.bitvec import BitWord, Record
from unarynet.cc4 import CC4Network, TrainingSample
from unarynet.checks import CheckGrid, PropertyResult

WORD = BitWord(5, 4)
SAMPLE = TrainingSample(WORD, BitWord(1, 2))
NETWORK = CC4Network(1, 4, 2, (5, 3), (1, 2), "fixed 4 4 1 4")

# one or more values of each class, the later ones through every optional field
VALUES = {
    "BitWord": [WORD, BitWord(0, 1), BitWord(2**300 - 1, 300)],
    "TrainingSample": [SAMPLE],
    "CC4Network": [CC4Network(0, 3, 1, (5,), (1,)), NETWORK],
    "CheckGrid": [CheckGrid(), CheckGrid(seed=3, radii=(1, 2), metric_max_len=4)],
    "PropertyResult": [
        PropertyResult("metric-axioms", {"len": 3}, True),
        PropertyResult("radius-law", {"w": 4, "r": 1}, False, measured=2, claimed=1,
                       counterexample="x=0", note="a note")],
}
records = pytest.mark.parametrize("name", VALUES)


@records
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_values_of_the_same_class(name, clone):
    for value in VALUES[name]:
        twin = clone(value)
        assert type(twin) is type(value) and type(value).__name__ == name
        assert twin == value and repr(twin) == repr(value) and str(twin) == str(value)
        if name != "PropertyResult":  # its params dict has no hash
            assert hash(twin) == hash(value)


@records
def test_fields_cannot_be_assigned_or_deleted(name):
    for value in VALUES[name]:
        for field in value.__match_args__:
            before = getattr(value, field)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(value, field, before)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(value, field)
            assert getattr(value, field) is before


@pytest.mark.parametrize("value", [WORD, SAMPLE], ids=["BitWord", "TrainingSample"])
def test_a_new_attribute_is_refused(value):
    with pytest.raises(AttributeError, match="'extra'"):
        value.extra = 1
    assert not hasattr(value, "extra") and not hasattr(value, "__dict__")


@records
def test_equal_only_to_a_value_of_its_class(name):
    for value in VALUES[name]:
        assert isinstance(value, Record)
        fields = tuple(getattr(value, field) for field in value.__match_args__)
        assert value != fields and fields != value


def test_hash_follows_the_fields():
    for value in (WORD, SAMPLE, NETWORK, CheckGrid(seed=3)):
        fields = tuple(getattr(value, field) for field in value.__match_args__)
        assert hash(value) == hash(copy.copy(value)) == hash(fields)
    assert CheckGrid(seed=3) != CheckGrid() and CheckGrid(seed=1) == CheckGrid()


def test_repr_names_each_field():
    assert repr(WORD) == "BitWord(value=5, width=4)"
    assert repr(SAMPLE) == (
        "TrainingSample(input=BitWord(value=5, width=4), output=BitWord(value=1, width=2))")
    assert repr(NETWORK) == (
        "CC4Network(radius=1, pattern_width=4, output_count=2, anchors=(5, 3),"
        " labels=(1, 2), quantizer='fixed 4 4 1 4')")
    assert repr(CheckGrid(seed=3)).startswith("CheckGrid(metric_max_len=8, gray_width=10,")
    assert repr(CheckGrid(seed=3)).endswith(", bias_vectors=200, seed=3)")


def test_only_record_defines_the_value_methods():
    methods = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__", "__reduce__"}
    found = {}
    for path in Path(bitvec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if defined & methods:
                    found[node.name] = defined & methods
    assert found == {"Record": methods}
