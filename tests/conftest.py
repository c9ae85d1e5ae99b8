import pytest

from slicebound import Diagram


@pytest.fixture
def resolution_masks(monkeypatch):
    """The cube-vertex masks of every ``Diagram.resolution`` call made while
    the test runs, in call order."""
    masks = []
    resolve = Diagram.resolution

    def counting(self, mask):
        masks.append(mask)
        return resolve(self, mask)

    monkeypatch.setattr(Diagram, "resolution", counting)
    return masks


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)`` wraps the function ``owner.name`` for the rest
    of the test and returns a list that receives the positional arguments of
    every call made through it, in call order."""

    def watch(owner, name):
        seen = []
        fn = getattr(owner, name)

        def recording(*args, **kwargs):
            seen.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return seen

    return watch
