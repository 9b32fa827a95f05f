"""Command-line entry of the gamefi-sim benchmark; see bench.py for what it measures.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name|all> --seed 42 --seconds 30 --trace 0
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _entry() -> int:
    package = HERE.parent / "src" / "gamefi_sim" / "__init__.py"
    if not package.is_file():
        print(f"error: gamefi_sim sources not found at {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from bench import main

    return main()


if __name__ == "__main__":
    sys.exit(_entry())
