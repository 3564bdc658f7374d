"""Timed launches of `pyramid-masker mask`, kept apart from the checker.

    python3 bench/rounds.py --corpus C --first F --out-dir D --seconds N \\
        --workers-par 2 -- --strategy lead --entities rules

Launches one warm-up on the first-cluster corpus (it writes the
bytecode caches), then repeats a round of three launches until
``--seconds`` have passed and there have been MIN_ROUNDS rounds: the
whole corpus at ``--workers 1``, the whole corpus at ``--workers-par``,
and the first-cluster corpus at ``--workers-par`` (set-up time).
Spreading the set-up launches over the run keeps one slow spell of the
machine from setting their median.  Each launch inherits this
process's environment; its stderr goes to a file beside its output.
Prints one JSON object: for every launch its wall seconds, peak RSS in
KiB and output sha256.  The first ``--workers 1`` output is kept as
``serial.jsonl`` and the set-up output as ``first.jsonl`` in
``--out-dir``.

This runs as its own small process because the peak RSS the kernel
reports for a child starts from the peak of the process that launched
it, so a child's figure is max(this process's peak, its own).  Outputs
are hashed in fixed-size chunks to keep this process's peak near the
interpreter's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

MIN_ROUNDS = 5


def launch(corpus: str, output: str, flags: list[str], workers: int) -> dict:
    argv = [
        sys.executable, "-m", "pyramid_masker.cli", "mask",
        "--input", corpus, "--output", output, *flags, "--workers", str(workers),
    ]
    errors = output + ".stderr"
    with open(errors, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 2):
        with open(errors, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise SystemExit(f"mask --workers {workers} on {corpus} exited {code}: {tail}")
    with open(output, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    return {"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "sha256": digest}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--first", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workers-par", type=int, required=True)
    parser.add_argument("flags", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    flags = [f for f in args.flags if f != "--"]
    out = os.path.join(args.out_dir, "round.jsonl")
    first_out = os.path.join(args.out_dir, "first.jsonl")

    launch(args.first, first_out, flags, args.workers_par)
    serial: list[dict] = []
    parallel: list[dict] = []
    setup: list[dict] = []
    started = time.perf_counter()
    while len(serial) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        serial.append(launch(args.corpus, out, flags, 1))
        if len(serial) == 1:
            shutil.copyfile(out, os.path.join(args.out_dir, "serial.jsonl"))
        parallel.append(launch(args.corpus, out, flags, args.workers_par))
        setup.append(launch(args.first, first_out, flags, args.workers_par))
    print(json.dumps({"setup": setup, "serial": serial, "parallel": parallel}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
