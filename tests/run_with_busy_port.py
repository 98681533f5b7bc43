"""Runs a command with --serve=PORT appended, where PORT is already bound.

    python3 tests/run_with_busy_port.py BINARY [ARGS...]

Exits with the command's status, so a test can check how a binary reports
a --serve port it cannot bind.
"""
import socket
import subprocess
import sys

with socket.socket() as busy:
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    port = busy.getsockname()[1]
    sys.exit(subprocess.call(sys.argv[1:] + [f"--serve={port}"]))
