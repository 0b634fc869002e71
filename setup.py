"""Setup shim: lets ``python setup.py develop`` install the package in
editable mode on environments without the ``wheel`` package, where
``pip install -e .`` fails (pip builds an editable wheel and needs
``bdist_wheel``).  All real metadata lives in pyproject.toml."""
from setuptools import setup

setup()
