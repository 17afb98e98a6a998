"""Fresh-interpreter probes, run as a child process by run.py.

    python3 -I perfbench/fresh.py setup SRC
        prints the seconds from interpreter start of this script to
        ``import antibidiag.cli`` plus ``build_parser()``, then the seconds
        the reference work of calib.py takes right after.
    python3 -I perfbench/fresh.py rss SRC WORKLOAD SEED
        sets up the same way, runs one full cycle of the workload's requests
        and prints the process's peak resident memory in MiB.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    mode, src = argv[0], argv[1]
    sys.path.insert(0, src)
    import antibidiag.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - T0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if mode == "setup":
        from calib import reference_seconds

        print(repr(setup_s), repr(reference_seconds()))
        return 0
    from workloads import WORKLOADS

    workload, seed = WORKLOADS[argv[2]], int(argv[3])
    with redirect_stderr(io.StringIO()):
        for req in workload.requests(seed, workload.cycle):
            cli.main(list(req.argv), out=io.StringIO())
    print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
