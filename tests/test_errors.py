import inspect
import pickle

import pytest

from clonecat import errors

# constructor arguments of the classes that take more than a message
ARGS = {
    errors.LexError: (3, 14, "illegal character '#'", "a.java"),
    errors.BadRow: (7, "label must be 0 or 1, got 'yes'"),
}
# attributes each class carries besides its message
ATTRS = {
    errors.LexError: {"line": 3, "column": 14, "reason": "illegal character '#'"},
    errors.BadRow: {"line_number": 7},
}
CLASSES = [obj for _name, obj in inspect.getmembers(errors, inspect.isclass)
           if issubclass(obj, Exception) and obj.__module__ == errors.__name__]


def test_every_error_class_is_covered():
    assert len(CLASSES) == 11
    assert set(ARGS) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    """Errors cross process boundaries, as a worker's exception does."""
    original = cls(*ARGS.get(cls, ("something went wrong",)))
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    for name, value in ATTRS.get(cls, {}).items():
        assert getattr(copy, name) == value
