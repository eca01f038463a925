"""Rewrite tests/golden/: the seeded inputs and every output the golden
commands write from them.

    PYTHONPATH=src python tests/regenerate_golden.py
"""

import shutil
import sys

from golden_cases import GOLDEN, INPUTS, OUTPUTS, run_all, write_inputs


def main() -> int:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    write_inputs(GOLDEN)
    run_all(GOLDEN)
    written = sorted(p.name for p in GOLDEN.iterdir())
    assert written == sorted(INPUTS + OUTPUTS), written
    print(f"wrote {len(written)} files, {sum(p.stat().st_size for p in GOLDEN.iterdir())} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
