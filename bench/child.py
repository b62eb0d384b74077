"""One benchmark repetition in a fresh interpreter.

Usage: child.py SRC_DIR RESULT_JSON SPANS_FILE|- FLAPWEAR_ARGS...

Imports ``flapwear.cli`` from SRC_DIR, then times one ``cli.main`` call
on the given arguments, between two timings of the reference work (see
``reference.py``). With a SPANS_FILE the public functions are traced
and the spans are saved there after the call. The exit code (1 for an
exception that escapes ``main``), the exception, the wall time, the
mean reference time and the process's peak resident memory go to
RESULT_JSON.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    src, result_path, spans_path, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    import flapwear.cli

    if Path(flapwear.cli.__file__).resolve().parent.parent != Path(src).resolve():
        sys.exit(f"flapwear imported from {flapwear.cli.__file__}, not from {src}")

    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    from reference import reference_time

    reference_before = reference_time()
    error = None
    t0 = time.perf_counter()
    try:
        code = flapwear.cli.main(argv)
    except Exception as exc:  # an escaped exception fails the call like a non-zero exit
        code, error = 1, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    reference_s = (reference_before + reference_time()) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.save(spans_path)
    Path(result_path).write_text(
        json.dumps({"exit_code": code, "error": error, "wall_s": wall_s, "reference_s": reference_s,
                    "peak_rss_mb": peak_rss_mb}),
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
