from setuptools import Extension, setup

# The term kernel is compiled from one hand-written C file.  It is optional:
# without a compiler the build goes on and the package falls back to the
# pure-Python reference kernels at import time.
setup(
    ext_modules=[
        Extension(
            "frobstab._kernel._speedups",
            ["src/frobstab/_kernel/_speedups.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
