import os

from setuptools import Extension, setup

# The compiled kernel is optional: the package falls back to the pure-Python
# reference kernels at import time.  Set FROBSTAB_NO_EXT=1 to skip the build.
# With Cython the extension is generated from the .pyx; without it, the
# committed C file generated from that .pyx is compiled directly.
KERNEL = "src/frobstab/_kernel/_speedups"
ext_modules = []
if os.environ.get("FROBSTAB_NO_EXT") != "1":
    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [
            Extension(
                "frobstab._kernel._speedups",
                [KERNEL + ".c"],
                extra_compile_args=["-O2"],
                optional=True,
            )
        ]
    else:
        ext_modules = cythonize(
            [
                Extension(
                    "frobstab._kernel._speedups",
                    [KERNEL + ".pyx"],
                    extra_compile_args=["-O2"],
                )
            ],
            compiler_directives={
                "language_level": "3",
                "boundscheck": False,
                "wraparound": False,
                "cdivision": True,
            },
        )

setup(ext_modules=ext_modules)
