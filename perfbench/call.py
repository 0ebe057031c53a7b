"""One `bilink` command-line call in a fresh process, as a user runs it.

    python3 perfbench/call.py CALL_DIR TRACE ARGV...

Imports bilink, installs a tracer (the light one with TRACE 0, every public
function with TRACE 1; see spans.py) and runs `bilink.cli.main(ARGV)` with
its output appended to CALL_DIR/bilink.log. Spans go to CALL_DIR/spans/.
Writes CALL_DIR/call.json: the exit code, this process's id, the seconds
inside `cli.main`, and the peak RSS of this process and of its largest
child (a pool worker). run.py starts one of these per call and reads back
what it wrote.
"""

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import LIGHT, Tracer  # noqa: E402


def main(call_dir, trace, argv):
    from bilink import cli

    call_dir = Path(call_dir)
    tracer = Tracer(LIGHT if trace == "0" else None)
    tracer.spans_dir = call_dir / "spans"
    tracer.spans_dir.mkdir(parents=True)
    tracer.run_id = call_dir.name
    tracer.install()
    with open(call_dir / "bilink.log", "a", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    tracer.uninstall()
    tracer.flush()
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    (call_dir / "call.json").write_text(json.dumps(
        {"exit_code": rc, "pid": os.getpid(), "seconds": elapsed,
         "peak_rss_mb": rss_kb / 1024.0}), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
