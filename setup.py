"""Setuptools shim.

The environment's setuptools/pip combination lacks the ``wheel`` package
required for PEP 660 editable installs, so this repo keeps a classic
``setup.py`` and omits ``[build-system]`` from pyproject.toml; that makes
``pip install -e .`` take the legacy develop path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "CliqueSquare reproduction: flat plans for massively parallel "
        "RDF queries (ICDE 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # The id-space engine every service and shard worker runs is numpy
    # kernels over int64 id columns.
    install_requires=["numpy"],
)
