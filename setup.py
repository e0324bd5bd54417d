"""Shim for legacy editable installs (offline environment lacks `wheel`)."""

from setuptools import setup

setup()
