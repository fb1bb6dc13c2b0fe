"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Set-up is ``import paragen`` (numpy included) plus loading the workload's
inputs through the program's own loaders. Run by harness.py:

    python3 perfbench/probe.py <workload> <workdir>
"""

import os
import sys
import time

import loaders


def main(workload, workdir):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    load, vocab_size = loaders.SETUP[workload]
    start = time.perf_counter()
    import paragen
    load(paragen, workdir, vocab_size)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:3])
