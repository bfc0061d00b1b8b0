"""Build the committed C term kernel and make frobstab import it.

The kernel is compiled from ``src/frobstab/_kernel/_speedups.c`` with the
system compiler into ``verdictbench/_build/_speedups-<hash>/``, keyed on the
SHA-256 of the C file and the interpreter's extension suffix, so a changed
kernel source is always rebuilt and an unchanged one is built once per
checkout.  The native half of the host-speed probe, ``hostprobe.c``, is
built the same way (``load_probe()``).

``load()`` registers the compiled module as ``frobstab._kernel._speedups``
before frobstab is imported and sets ``FROBSTAB_KERNEL=c``, so the library's
own selection picks it up and ``frobstab.kernel_implementation()`` reports
``c``.  Any failure raises: numbers from the C and the Python kernel are not
comparable, so there is no fallback.
"""

import hashlib
import importlib.util
import json
import os
import platform
import shlex
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
C_SOURCE = SRC / "frobstab" / "_kernel" / "_speedups.c"
BUILD_DIR = BENCH_DIR / "_build"
MODULE_NAME = "frobstab._kernel._speedups"
PROBE_SOURCE = BENCH_DIR / "hostprobe.c"
KERNEL_FUNCTIONS = ("add_terms", "mul_terms", "divmod_terms")


class KernelError(RuntimeError):
    """The compiled kernel could not be built or is not the one in use."""


def _compiler():
    cc = sysconfig.get_config_var("CC") or "cc"
    return shlex.split(cc)


def _compiler_version(cc):
    try:
        out = subprocess.run(
            cc + ["--version"], capture_output=True, text=True, timeout=60, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError) as err:
        raise KernelError(f"compiler {cc[0]!r} is not usable: {err}") from None
    return out.splitlines()[0].strip() if out else cc[0]


def build(source=C_SOURCE, name="_speedups"):
    """Path of the compiled extension `name` and its build record, building
    it from `source` if needed.

    The record holds the source hash, the compiler, the build time and
    whether this call built it.
    """
    if not source.is_file():
        raise KernelError(f"source {source} is missing")
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target_dir = BUILD_DIR / f"{name}-{digest[:16]}{suffix.replace('.so', '')}"
    target = target_dir / f"{name}{suffix}"
    record_path = target_dir / "build.json"
    if target.is_file() and record_path.is_file():
        record = json.loads(record_path.read_text())
        record["built_now"] = False
        return target, record
    target_dir.mkdir(parents=True, exist_ok=True)
    cc = _compiler()
    include = sysconfig.get_paths()["include"]
    tmp = target_dir / f"{name}.{os.getpid()}.tmp"
    cmd = cc + [
        "-shared", "-fPIC", "-O2", "-fwrapv", "-DNDEBUG",
        "-I", include, str(source), "-o", str(tmp),
    ]
    # the compiler's scratch files stay in the build directory too
    env = dict(os.environ, TMPDIR=str(target_dir))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, env=env)
    except (OSError, subprocess.SubprocessError) as err:
        raise KernelError(f"build of {name} failed to run: {err}") from None
    build_s = time.perf_counter() - start
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise KernelError(f"build of {name} failed:\n{proc.stderr[-4000:]}")
    record = {
        "source_sha256": digest,
        "compiler": _compiler_version(cc),
        "command": cmd[:-3] + ["<source>", "-o", "<target>"],
        "build_s": build_s,
    }
    os.replace(tmp, target)
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    record["built_now"] = True
    return target, record


def _import(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as err:
        raise KernelError(f"compiled {name} does not load: {err}") from None
    return module


def load_probe():
    """The native half of the host-speed probe, built if needed: a function
    that does fixed work and returns a checksum."""
    path, _record = build(PROBE_SOURCE, "_hostprobe")
    return _import("_hostprobe", path).work


def load():
    """Build if needed, register the module, import frobstab on the C kernel.

    Returns the environment record. Must run before anything imports
    frobstab.
    """
    if "frobstab" in sys.modules:
        raise KernelError("frobstab was imported before the kernel was registered")
    path, record = build()
    module = _import(MODULE_NAME, path)
    sys.modules[MODULE_NAME] = module
    os.environ["FROBSTAB_KERNEL"] = "c"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import frobstab
    import frobstab._kernel as kernel

    in_use = frobstab.kernel_implementation()
    if in_use != "c" or any(
        getattr(kernel, name) is not getattr(module, name) for name in KERNEL_FUNCTIONS
    ):
        raise KernelError(f"frobstab runs the {in_use!r} kernel, not the compiled one")
    return {
        "kernel": in_use,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": record["compiler"],
        "kernel_build_s": record["build_s"],
        "kernel_built_now": record["built_now"],
        "kernel_source_sha256": record["source_sha256"],
    }
