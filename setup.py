"""Build script: compiles the optional brute-force matching kernel.

The extension is a compiled twin of ``_mapcore_py``, the enumeration that
cross-checks the Tutte-recursion map counts; when Cython or a C compiler is
missing the package installs without it.
"""

from setuptools import Extension, setup

extensions = []
try:
    from Cython.Build import cythonize

    extensions = cythonize(
        [
            Extension(
                "mapgenus._mapcore",
                ["src/mapgenus/_mapcore.pyx"],
                extra_compile_args=["-O2"],
            )
        ],
        compiler_directives={"language_level": 3},
    )
except ImportError:
    print("Cython not available; skipping the compiled brute-force kernel")

setup(ext_modules=extensions)
