"""Legacy setup shim: lets ``pip install -e .`` work offline with the
pre-PEP-660 setuptools available in this environment."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "MoDisSENSE reproduction: a distributed spatio-temporal and "
        "textual processing platform for social networking services "
        "(SIGMOD 2015)"
    ),
    license="Apache-2.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
