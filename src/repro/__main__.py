"""``python -m repro`` — the script-driven interface (see repro.cli)."""

import os
import sys

from .cli import main

try:
    rc = main()
    sys.stdout.flush()
except BrokenPipeError:
    # The reader closed the pipe (`repro sim ... | head`).  Point
    # stdout at devnull so the flush at shutdown cannot raise again,
    # and exit 1 as Python does on EPIPE.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    rc = 1
sys.exit(rc)
