"""Packaging for the ``repro`` reproduction package.

Kept as a plain ``setup.py`` so the legacy
``pip install -e . --no-use-pep517`` editable path works offline.
The package is pure numpy.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.5.0",
    description=(
        "Reproduction of 'Ad Allocation with Minimum Regret' (VLDB 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
