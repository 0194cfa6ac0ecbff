"""One operation of the benchmark, in a fresh process: the calls that
`dnf-fourier verify|sweep CONFIG --out REPORT` makes.

    python3 child.py T0 TIMING MODE CONFIG REPORT [--setup-only] [--trace SPANS]

T0 is the `time.monotonic()` reading taken by the parent just before it
launched this process (the clock is system-wide on Linux). TIMING receives
a JSON object with the exit code, the moment the first `Dnf.evaluate`
began (set-up is over: imports done, config parsed, instance built) and
the moment the report was written. With --setup-only the process stops
at that first evaluate. With --trace the layers are traced (see spans.py)
and the spans are written to SPANS.
"""
import json
import os
import sys
import time


class _SetupDone(BaseException):
    """Raised at the first evaluate of a --setup-only process; a
    BaseException so that no handler in the program catches it."""


def main(argv: list[str]) -> int:
    t0 = float(argv[0])
    timing_path, mode, config, report = argv[1:5]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    from dnf_fourier import cli
    from dnf_fourier.dnf import Dnf

    tracer = None
    if spans_path:
        import spans

        tracer = spans.install(t0)
    timing = {}
    evaluate = Dnf.evaluate

    def first_evaluate(self, *args, **kwargs):
        timing["t_setup"] = time.monotonic()
        Dnf.evaluate = evaluate
        if setup_only:
            raise _SetupDone
        return evaluate(self, *args, **kwargs)

    Dnf.evaluate = first_evaluate
    try:
        rc = cli.main([mode, config, "--out", report])
    except _SetupDone:
        rc = 0
    timing["t_done"] = time.monotonic()
    timing["rc"] = rc
    if tracer is not None:
        tracer.finish(timing["t_done"])
        tracer.save(spans_path, os.path.getsize(report) if os.path.exists(report) else 0)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
