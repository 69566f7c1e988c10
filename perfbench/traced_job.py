"""Run one ``ellarr`` CLI job with the layer wrappers installed.

Usage: python3 perfbench/traced_job.py TRACE_OUT JOB_ID -- ELLARR_ARGS...

Stdout, stderr and the exit code are the CLI's own; the spans and counters
go to TRACE_OUT as JSON when the job ends.  ``ellarr`` is imported from
PYTHONPATH, as for an untraced job.
"""

import sys

import tracing


def main() -> int:
    out, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_job.py TRACE_OUT JOB_ID -- ARGS...")
    recorder = tracing.Recorder()
    tracing.install(recorder)
    import ellarr.cli
    try:
        return ellarr.cli.main(argv)
    finally:
        recorder.dump(job, out)


if __name__ == "__main__":
    sys.exit(main())
