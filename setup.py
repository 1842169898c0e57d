"""Setuptools entry point.

The package is declared here alone (there is no ``pyproject.toml``), so
``pip install -e .`` works in fully offline environments (no wheel /
build-isolation downloads required for a legacy editable install).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Sparsity-aware communication for distributed GNN training "
                 "(ICPP'24 reproduction)"),
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    extras_require={"dev": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
