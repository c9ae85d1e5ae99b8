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
