import atexit
import os
import sys
from typing import NoReturn

from .cli import main


def run() -> NoReturn:
    """Process entry point: `main`, then the interpreter's own exit steps
    up to its teardown: the `atexit` callbacks, the flush of stdout and
    stderr, and `os._exit` with the code.

    Every file a command opens is closed before `main` returns, and mgcolor
    starts no threads. An exception out of `main` (argparse's usage errors
    and `--help` raise `SystemExit`) or a flush that fails (stdout on a full
    disk or on a pipe with no reader) leaves the exit to the interpreter, so
    the message and the exit code (120 for a failed flush) stay what they
    are without this function.

    It lives here rather than in `cli`: where no bytecode is cached, the
    larger `cli.py` raised `color --debug-checks`'s max RSS by about 120 KB
    (README, "Memory").
    """
    code = main()
    atexit._run_exitfuncs()  # clears them, so a fallback exit skips them
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # a descriptor closed at start-up
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
