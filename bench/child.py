"""One otb CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON is
{"argv": [...] or null, "trace": bool, "spans": path or null}.
With argv null the process only imports otb.cli (a set-up probe).

Prints one JSON line: the CLOCK_MONOTONIC times at which `import otb.cli`
finished and `otb.cli.run(argv)` started and ended (the parent turns them
into set-up and run times), run()'s exit code and captured stdout, the peak
RSS, a traceback if run() raised, and with tracing the per-span summary.
"""

import io
import json
import resource
import sys
import time
import traceback

import otb.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = {"imported": IMPORTED}
    if spec["argv"] is not None:
        recorder = None
        if spec["trace"]:
            from spans import Recorder
            recorder = Recorder()
            recorder.install()
        real_stdout, sys.stdout = sys.stdout, io.StringIO()
        result["run_start"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            result["code"] = otb.cli.run(spec["argv"])
        except Exception:
            result["code"] = None
            result["error"] = traceback.format_exc()
        result["run_end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        result["stdout"] = sys.stdout.getvalue()
        sys.stdout = real_stdout
        if recorder is not None:
            recorder.uninstall()
            result["spans"] = recorder.summary()
            if spec.get("spans"):
                recorder.write(spec["spans"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
