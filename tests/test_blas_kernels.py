"""drew writes the same bytes whichever OpenBLAS and numpy kernels run it.

numpy's wheel ships OpenBLAS built for many CPUs: it picks its kernels from
the CPU at run time, and each kernel may sum a dot product in its own order.
numpy dispatches its own SIMD loops the same way.  Each setting below is
forced in a child process's environment only.  Under every one of them,
``drew query`` on the pin file of ``test_query_io`` (routed, ``--naive`` and
a forced fallback), a small ``drew build`` and a small
``drew eval --only accuracy,roc`` must write the bytes they write by default.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys

import pytest

import drew
from test_query_io import FLAGS, _build_store, _pin_lines


def _has_avx2() -> bool:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return any(line.startswith("flags") and " avx2" in line for line in fh)


X86_64_LINUX = sys.platform.startswith("linux") and platform.machine() in ("x86_64", "AMD64")

pytestmark = pytest.mark.skipif(not X86_64_LINUX, reason="kernel names are x86-64 Linux ones")

#: Settings compared with the default run.  Prescott runs on any x86-64 CPU;
#: Haswell needs AVX2; X86_V2 turns off numpy's AVX2 and AVX-512 loops.
SETTINGS = {
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "x86-v2": {"NPY_ENABLE_CPU_FEATURES": "X86_V2"},
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("kernels")
    store = _build_store(root / "s.drew")
    qfile = root / "q.jsonl"
    qfile.write_text("\n".join(_pin_lines(store)) + "\n", encoding="utf-8")
    return root


def _outputs(root, name: str, extra: dict) -> dict[str, bytes]:
    """Every output of the runs under one setting, by name."""
    src = os.path.dirname(os.path.dirname(drew.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_ENABLE_CPU_FEATURES")}
    env.update(extra, PYTHONPATH=src)

    def drew_cli(*argv) -> bytes:
        return subprocess.run([sys.executable, "-m", "drew.cli", *argv], env=env, cwd=root,
                              capture_output=True, check=True).stdout

    out = {f"query {mode}": drew_cli("query", "--store", "s.drew", "--queries", "q.jsonl", *flags)
           for mode, flags in FLAGS.items()}
    drew_cli("build", "--synthetic", "N=300", "d=16", "--k", "6", "--n", "32", "--seed", "5",
             "--store", f"b-{name}.drew")
    out["build"] = (root / f"b-{name}.drew").read_bytes()
    drew_cli("eval", "--store", "s.drew", "--only", "accuracy,roc", "--n-queries", "40",
             "--n-in", "40", "--n-out", "40", "--seed", "7", "--out-dir", f"eval-{name}")
    for path in sorted((root / f"eval-{name}").iterdir()):
        out[f"eval {path.name}"] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def default_outputs(inputs):
    return _outputs(inputs, "default", {})


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_outputs_do_not_depend_on_the_kernel(inputs, default_outputs, setting):
    if setting == "haswell" and not _has_avx2():
        pytest.skip("the Haswell kernel needs AVX2")
    out = _outputs(inputs, setting, SETTINGS[setting])
    assert sorted(out) == sorted(default_outputs)
    assert [name for name in out if out[name] != default_outputs[name]] == []
