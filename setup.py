"""Builds the optional compiled kernel extension.

The package is fully functional without it; factorid._kernels falls back to
the pure-Python implementations at import time. Build in place with

    python setup.py build_ext --inplace

With Cython installed the extension is compiled from `_ckernels.pyx`;
without it, from the committed `_ckernels.c` generated from that file.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

kernels = Extension(
    "factorid._kernels._ckernels",
    sources=["src/factorid/_kernels/_ckernels." + ("c" if cythonize is None else "pyx")],
    extra_compile_args=["-O3"],
    optional=True,
)
ext_modules = [kernels] if cythonize is None else cythonize([kernels], language_level=3)

setup(ext_modules=ext_modules)
