"""Run one `nwflow` command in this process and check how far its peak RSS grew.

    python3 tools/peak_rss.py LIMIT_MB ARGV...

ARGV is the `nwflow` command line, such as `experiment endpoint-check --out DIR`.
The baseline is the peak RSS after importing `nwflow.cli`, so the figure is what
the command itself adds.  Exits with the command's own code if it is nonzero,
else 1 when peak RSS grew more than LIMIT_MB, else 0.
"""

import resource
import sys

from nwflow.cli import main


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


limit, argv = float(sys.argv[1]), sys.argv[2:]
base = rss_mb()
code = main(argv)
grown = rss_mb() - base
print(f"nwflow {' '.join(argv)}: exit {code}, peak RSS grew {grown:.1f} MB (limit {limit:g})")
sys.exit(code or grown > limit)
