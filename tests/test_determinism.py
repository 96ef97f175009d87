"""Training, sampling and evaluation give the same bytes whatever the BLAS thread count."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bitcheck", ROOT / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitcheck)


def test_one_and_two_blas_threads_give_identical_bytes():
    # tools/bitcheck.py's script: trained tensors, guided samples and eval rows
    one, two = bitcheck.outputs(ROOT, 1), bitcheck.outputs(ROOT, 2)
    assert len(one["combined"]) == 64
    assert one == two
