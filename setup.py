"""Package metadata and the ``ect-hub`` console script.

``pip install -e .`` installs the ``repro`` package from ``src/`` plus an
``ect-hub`` command that runs :func:`repro.cli.main`; without installing,
``PYTHONPATH=src python -m repro.cli`` is the same entry point.
"""
from setuptools import find_packages, setup

setup(
    name="ect-hub",
    version="0.1.0",
    description=(
        "Reproduction of the base-station-centric ECT-Hub "
        "(energy-communication-transportation hub) design"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy", "networkx"],
    entry_points={"console_scripts": ["ect-hub = repro.cli:main"]},
)
