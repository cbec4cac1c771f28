#!/usr/bin/env python3
"""Run a command; print its wall time and peak resident set size.

    scripts/peak_rss.py [--out FILE] -- COMMAND [ARG...]

The command inherits stdin, stdout and stderr, so its output can be
redirected and compared as usual; this script prints one line after it
exits, to stderr or appended to FILE (so the command's own stderr can
be compared too), and exits with the command's status:

    peak_rss: wall_s=5.402 peak_rss_mb=159.2 wrapper_rss_mb=14.2 cmd=...

peak_rss_mb is the child's ru_maxrss from wait4(2), in MiB. It includes
this wrapper's own RSS: Linux keeps a process's high-water mark across
exec, so a child forked from this interpreter starts from the
interpreter's resident high-water mark at the fork. wrapper_rss_mb is
that mark (VmHWM); a peak_rss_mb at or near it says only that the
command peaked no higher, not what the command's own peak was.
"""

import argparse
import os
import resource
import subprocess
import sys
import time


def own_high_water_kb():
    """This process's resident high-water mark, which a child inherits
    across fork and exec; ru_maxrss where /proc is missing."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    ap = argparse.ArgumentParser(
        description="Run COMMAND; print its wall time and peak RSS.")
    ap.add_argument("--out", default=None,
                    help="append the report line here, not to stderr")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    wrapper_kb = own_high_water_kb()
    start = time.monotonic()
    try:
        child = subprocess.Popen(cmd)
    except OSError as e:
        print(f"peak_rss: cannot run {cmd[0]}: {e}", file=sys.stderr)
        return 127
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    # Popen did not reap the child; mark it reaped.
    child.returncode = code = os.waitstatus_to_exitcode(status)

    line = (f"peak_rss: wall_s={wall:.3f} "
            f"peak_rss_mb={usage.ru_maxrss / 1024:.1f} "
            f"wrapper_rss_mb={wrapper_kb / 1024:.1f} cmd={' '.join(cmd)}")
    if args.out:
        with open(args.out, "a") as out:
            out.write(line + "\n")
    else:
        print(line, file=sys.stderr)
    return code if code >= 0 else 128 - code  # -N: killed by signal N


if __name__ == "__main__":
    sys.exit(main())
