"""``repro mine`` output, byte for byte, against committed golden files.

``golden/cases.txt`` lists each run: the expected output file, the input
fixture, the support and the flags.  The expected files were written by
the CLI before label/rank conversion moved to the two ends of the
pipeline, so any change in parse, build, decode or render that alters a
single output byte fails here.  CI's ``mine golden`` step runs the same
table through the installed CLI and ``cmp``.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _cases():
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            expected, source, support, *flags = line.split()
            yield pytest.param(expected, source, support, flags, id=expected)


@pytest.mark.parametrize("expected, source, support, flags", _cases())
def test_mine_output_is_byte_identical(expected, source, support, flags, tmp_path):
    out = tmp_path / "out.txt"
    argv = ["mine", "--input", str(GOLDEN / source), "--min-support", support, *flags]
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


def test_every_golden_file_is_checked():
    listed = {p.values[0] for p in _cases()}
    assert listed == {p.name for p in GOLDEN.glob("*.txt")} - {"cases.txt"}
