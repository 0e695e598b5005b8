"""Legacy setup shim: lets `pip install -e .` work on environments
without the `wheel` package (PEP 660 editable builds need bdist_wheel)."""
from setuptools import setup

# int.bit_count (3.10) is how every bitmask in src/ is measured
setup(python_requires=">=3.10")
