import hashlib

import pytest

from emovid.util import derive_seed

# the labels the CLI stages and perfbench/workloads.py derive their seeds from
SEED_INPUTS = [
    (0, "train"), (0, "cv"), (0, "synth"), (3, "train"), (5, "cv"),
    *((base, "bench", stream) for base in (0, 3)
      for stream in ("frames", "audio", "face", "scene")),
    (0,), (-1, "train"), (2 ** 80, "train"), (7, ""), (7, "a|b"), (7, "a", "b"), (7, "é", "情"),
]


@pytest.mark.parametrize("base, labels", [(args[0], args[1:]) for args in SEED_INPUTS])
def test_derive_seed_is_the_top_63_bits_of_hashlib_sha256(base, labels):
    text = "|".join([str(base), *labels]).encode("utf-8")
    want = int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1
    assert derive_seed(base, *labels) == want


def test_derive_seed_examples():
    assert derive_seed(0, "train") == 5474228821629541517
    assert derive_seed(0, "bench", "audio") == 6113303830562495274
