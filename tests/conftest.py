import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the long certification sweeps (e.g. the (3,3) system check)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def fresh_paths(monkeypatch):
    """An empty fusion path memo for the test, and the former memo back after
    it.  A memoized element holds the diagrams of the registry it was fused
    in, and an element fused under patched code must serve no other test."""
    import wba.fusion as fusion

    monkeypatch.setattr(fusion, "_PATHS", fusion._PathMemo())
