"""Shared benchmark fixtures.

Every benchmark regenerates one paper table/figure at a reduced scale,
times it via pytest-benchmark, prints the resulting table and persists
it under ``results/`` so EXPERIMENTS.md can quote stable artefacts.
"""

from pathlib import Path

import pytest

from repro.harness import Scale


def pytest_addoption(parser):
    parser.addoption(
        "--obs",
        choices=("off", "on"),
        default="off",
        help="run service benchmarks with engine observability enabled "
        "('on') or on the no-op stand-ins ('off', the default)",
    )
    parser.addoption(
        "--wal",
        choices=("off", "interval", "always"),
        default="off",
        help="run service benchmarks with a write-ahead log under the "
        "given fsync policy ('off', the default, disables the WAL)",
    )


@pytest.fixture(scope="session")
def obs_mode(request):
    """Whether the service benchmarks build engines with obs enabled."""
    return request.config.getoption("--obs")


@pytest.fixture(scope="session")
def wal_mode(request):
    """Whether the service benchmarks log ingests to a WAL, and how
    durably ('interval'/'always' fsync policies)."""
    return request.config.getoption("--wal")


@pytest.fixture(scope="session")
def results_dir():
    d = Path(__file__).resolve().parent.parent / "results"
    d.mkdir(exist_ok=True)
    return d


@pytest.fixture(scope="session")
def bench_scale():
    """Default benchmark scale: paper shapes at laptop cost."""
    return Scale(window=1 << 12, n_windows=4, warm_windows=2)


@pytest.fixture(scope="session")
def small_scale():
    """Smaller scale for the heavier sweeps (Fig. 6, Fig. 9c)."""
    return Scale(window=1 << 11, n_windows=3, warm_windows=2)


def emit(results_dir, name: str, text: str) -> None:
    """Print and persist one regenerated table."""
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text)
