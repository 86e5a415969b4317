"""Packaging for the ``repro`` reproduction package.

Kept as a plain ``setup.py`` so the legacy
``pip install -e . --no-use-pep517`` editable path works offline.
The package is numpy plus a C compiler on first use: its C sources
(``repro/rrset/_bfs.c``, ``repro/rrset/_pool.c``,
``repro/algorithms/_select.c``) ship as package data and are compiled
into one library the first time a process needs a kernel
(``repro._native``), not at install time.
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
    package_data={
        "repro.rrset": ["_bfs.c", "_pool.c"],
        "repro.algorithms": ["_select.c"],
    },
    python_requires=">=3.10",
    install_requires=["numpy"],
)
