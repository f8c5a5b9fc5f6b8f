"""The bit gate's script run in tier-1: its form everywhere, and its digests
against tests/fingerprint_pins.json where this platform has pins.

To print this platform's entry for fingerprint_pins.json, computed by the
package on PYTHONPATH (pins come from the tree whose bits a change keeps):

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import ctypes
import io
import json
import platform
import re
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import fingerprint
import rrntn.models

PINS = Path(__file__).with_name("fingerprint_pins.json")


def test_fingerprint_prints_every_digest(capsys):
    # The bit gate's script runs here as documented, on any platform.
    fingerprint.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * (len(fingerprint.SPECS) + 1) == 30
    assert all(re.fullmatch(r"\S+ +[0-9a-f]{64}(  \(.+\))?", line) for line in lines)
    assert [line.split()[0] for line in lines].count("overall") == 3
    clipped = [int(n) for n in re.findall(r"\(gated windows clipped: (\d+)\)", "\n".join(lines))]
    assert len(clipped) == len(fingerprint.SPECS) and min(clipped) > 0


def _openblas():
    """numpy's bundled scipy-openblas library through ctypes, or None."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas64*")):
        lib = ctypes.CDLL(str(path))
        try:
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            lib.scipy_openblas_get_config64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        except AttributeError:
            continue
        return lib
    return None


@contextmanager
def one_blas_thread():
    """Inside the block, numpy's OpenBLAS runs one thread; yields the
    platform key that names the digests it computes."""
    lib = _openblas()
    before = lib.scipy_openblas_get_num_threads64_() if lib else None
    if lib:
        lib.scipy_openblas_set_num_threads64_(1)
    try:
        blas = (f"blas threads {lib.scipy_openblas_get_num_threads64_()}, "
                f"{lib.scipy_openblas_get_config64_().decode().strip()}") if lib else "blas unknown"
        yield f"numpy {np.__version__}, {platform.machine()}, {' '.join(platform.libc_ver())}, {blas}"
    finally:
        if lib:
            lib.scipy_openblas_set_num_threads64_(before)


def test_blas_threads_is_what_numpys_openblas_reports():
    # rrntn.models asks the BLAS that numpy's linear algebra links, found
    # through _umath_linalg, and _openblas finds the library by file name:
    # both read 1 inside one_blas_thread and the restored count after it
    lib = _openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    before = lib.scipy_openblas_get_num_threads64_()
    with one_blas_thread():
        assert rrntn.models._blas_threads() == 1
    assert rrntn.models._blas_threads() == before


@pytest.mark.parametrize("helper", ["without_helper", "with_helper"])
def test_fingerprint_matches_the_pins(request, capsys, helper):
    # Gaussian draws and BLAS kernels are bit-stable only per platform, so
    # the digests are pinned per platform key, with and without the helper
    # thread of rrntn.models.
    request.getfixturevalue(helper)
    pins = json.loads(PINS.read_text())
    with one_blas_thread() as key:
        if key not in pins:
            pytest.skip(f"no fingerprint pins for {key!r}")
        fingerprint.main()
    assert capsys.readouterr().out.splitlines() == pins[key]
    if helper == "with_helper":
        assert request.getfixturevalue("helper_pool").calls > 0


if __name__ == "__main__":
    with one_blas_thread() as key, redirect_stdout(io.StringIO()) as out:
        fingerprint.main()
    print(json.dumps({key: out.getvalue().splitlines()}, indent=1))
