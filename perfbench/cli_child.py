"""Run the ``repro`` command line in this process and record its memory.

Usage::

    python cli_child.py RESOURCE_JSON [--trace SPANS_JSON] -- REPRO_ARGS...

runs ``repro.cli.main(REPRO_ARGS)`` exactly as ``python -m repro`` does.
Afterwards it writes the peak resident set of this process (the campaign
supervisor) and the largest peak among the child processes it reaped
(the campaign workers) to ``RESOURCE_JSON``.  With ``--trace`` the
supervisor's calls are traced (see :mod:`spans`).
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv) -> int:
    split = argv.index("--")
    own, repro_args = argv[:split], argv[split + 1:]
    out = own[0]
    opts = dict(zip(own[1::2], own[2::2]))
    tracer = None
    if "--trace" in opts:
        import spans

        tracer = spans.Tracer()
        root = tracer.begin("bench.process")
        spans.install_campaign(tracer)

    import repro.cli

    code = repro.cli.main(repro_args)
    if tracer is not None:
        tracer.end(root)
        tracer.dump(opts["--trace"])
    with open(out, "w", encoding="utf-8") as f:
        json.dump({
            "exit_code": code,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_peak_rss_kb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
