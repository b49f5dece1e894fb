"""Setuptools entry point (there is no pyproject.toml).

``pip install -e .`` works offline with ``--no-use-pep517`` where the
``wheel`` package is missing.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
