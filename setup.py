"""Shim for legacy editable installs (offline environment lacks `wheel`).

The accelerated kernel tier is an optional extra::

    pip install -e ".[numba]"   # JIT CPU kernels (repro.kernels numba tier)

Without it the library runs entirely on the pure-NumPy reference
kernels; see ``REPRO_KERNELS`` in ``repro/kernels/__init__.py``.
"""

from setuptools import setup

setup(
    extras_require={
        "numba": ["numba>=0.59"],
    },
)
