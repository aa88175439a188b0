import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """``__version__`` from ``src/repro/__init__.py``, the single source."""
    init = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    return re.search(r'^__version__ = "([^"]+)"$', init, re.M).group(1)


setup(
    name="foss-repro",
    version=read_version(),
    description=(
        "Reproduction of 'FOSS: A Self-Learned Doctor for Query Optimizer' "
        "(ICDE 2024) with a SQL-text-in / plan-out serving API (repro.api), "
        "a socket-served remote engine (repro.engine.remote), and an "
        "AST-based invariant checker (repro-lint)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy",
        "networkx",
    ],
    entry_points={
        "console_scripts": [
            "repro-engine = repro.engine.remote.server:main",
            "repro-lint = repro.analysis.cli:main",
        ],
    },
)
