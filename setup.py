"""Package metadata for ``repro``, the reproduction of Kang,
Mallmann-Trenn & Rivera (PODC '21), "Diversity, Fairness, and
Sustainability in Population Protocols".

``pip install -e .`` installs the library from ``src/`` and the
``repro`` console script; ``setup.py`` is the only metadata file, so it
also works offline where the ``wheel`` package is unavailable.
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Diversification population protocol: simulation engines, "
        "experiments and analysis"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy", "networkx"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
