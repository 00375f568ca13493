"""Guards that apply to every test of the suite."""

import pytest

from ccplane.kernel import Geometry


@pytest.fixture(autouse=True)
def plane_models_keep_no_instance_state():
    """Fail a test that leaves an attribute on a plane model it built.

    A model is stateless, so ``vars(model)`` is ``{}``.  A patch set on
    the instance (``monkeypatch.setattr(model, ...)``) leaves the bound
    method in the instance's ``__dict__`` after monkeypatch's undo, where
    it shadows every later patch of the class.  Autouse fixtures are set
    up first and so torn down last: this check runs after the undo.
    Only models already built are read, so no test builds one here.  The
    attributes found are cleared, so only the test that left them fails.
    """
    yield
    for geometry in Geometry:
        model = vars(geometry).get("model")
        if model is not None and vars(model):
            leftover = sorted(vars(model))
            vars(model).clear()
            pytest.fail(
                f"{geometry.name} model kept instance attributes {leftover}", pytrace=False
            )
