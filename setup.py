"""Legacy setup shim.

The execution environment has no ``wheel`` package and no network, so PEP 660
editable installs fail; this shim lets ``pip install -e . --no-use-pep517
--no-build-isolation`` (and plain ``pip install -e .`` on older pips) take the
``setup.py develop`` path.  There is no ``pyproject.toml`` and ``setup()``
takes no metadata: setuptools' automatic discovery finds the ``repro``
package under ``src/`` and names the distribution after it (version 0.0.0).
No dependency is declared; the package needs numpy and, for
``repro.metrics.ssim``, scipy.
"""

from setuptools import setup

setup()
