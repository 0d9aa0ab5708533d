"""Set-up time in a fresh interpreter, and optionally one full run.

    python3 bench/child.py SRC_DIR FULL KERNREC_ARGV...

Times what a user pays before the first time step: importing
``kernrec.harness`` (numpy included), ``resolve_config``, grid
construction and ``validate_floor``.  With FULL=1 it then runs the
command once and adds its exit code, the process's peak resident
memory and the worst measurement-identity residual over every
reconstruction the command made.  Prints one JSON object.
"""

import json
import resource
import sys
import time

from tracer import Tracer


def main() -> None:
    src, full, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from kernrec import harness
    from kernrec.problem import validate_floor

    cfg = harness.resolve_config(harness.build_parser().parse_args(argv))
    grid, timegrid = cfg.grids()
    validate_floor(cfg.spec, grid, timegrid)
    out = {"setup_s": time.perf_counter() - start}
    if full:
        tracer = Tracer()
        tracer.install(
            "inverse.reconstruct",
            "kernrec.inverse.reconstruct",
            sample=lambda a, k, r: ("identity", r.diagnostics.max_compat_residual),
        )
        try:
            out["rc"] = harness.run_cli(argv)
        finally:
            tracer.remove()
        out["peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["identity_resid_max"] = max(tracer.samples["identity"], default=None)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
