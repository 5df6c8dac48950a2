"""Build script: compiles the optional C hole-search kernel.

The package works without the extension (a pure-Python kernel is selected
at import time), so a missing compiler only skips it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "holelab.kernels._fastcore",
            ["src/holelab/kernels/_fastcore.c"],
            optional=True,
        )
    ]
)
