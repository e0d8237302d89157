"""The public API documents itself."""

import inspect

import kato_evolve as ke


def _own_docstring(obj):
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    if doc and inspect.isclass(obj) and hasattr(obj, "__dataclass_fields__"):
        # a dataclass without a docstring gets its signature as one
        generated = obj.__name__ + str(inspect.signature(obj)).replace(" -> None", "")
        if doc == generated:
            return None
    return doc


def test_every_public_class_and_function_has_a_docstring():
    names = [n for n in ke.__all__
             if inspect.isclass(getattr(ke, n)) or inspect.isfunction(getattr(ke, n))]
    assert len(names) > 50
    assert [n for n in names if not (_own_docstring(getattr(ke, n)) or "").strip()] == []
