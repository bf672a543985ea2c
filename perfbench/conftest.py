import sys
from pathlib import Path

# the program under test is this checkout's src/, as in run.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
