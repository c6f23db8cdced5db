"""Packaging for the JAMM / NetLogger reproduction (``repro``).

Self-contained on purpose: the offline environment has no ``wheel``, so
the PEP 517 editable build is unavailable and ``pip install -e .`` takes
this file's ``setup.py develop`` path — all metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # repro.__version__
    description="JAMM monitoring sensor management and NetLogger, "
                "reproduced on a simulated Grid",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
