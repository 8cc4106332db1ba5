"""Make the benchmark's modules importable by their plain names, the
way ``python3 perfbench/run.py`` sees them."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
