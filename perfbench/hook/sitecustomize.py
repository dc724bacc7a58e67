"""Start-up hook for the execution service's worker processes.

The gap-batch workload puts this directory on ``PYTHONPATH`` and names
an output directory in ``PERFBENCH_JOB_DIR`` before the service spawns
its workers. Each worker then imports this module at interpreter start
and installs :mod:`workerhook`, which records per job the controller's
engine fallback log records and, when ``PERFBENCH_TRACE=1``, the span
summary of the job. Without ``PERFBENCH_JOB_DIR``, or in a process
that cannot import ``repro`` (multiprocessing's resource tracker), this
module does nothing.
"""

import importlib.util
import os
import sys

if (
    os.environ.get("PERFBENCH_JOB_DIR")
    and importlib.util.find_spec("repro") is not None
):
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    import workerhook

    workerhook.install(
        os.environ["PERFBENCH_JOB_DIR"],
        traced=os.environ.get("PERFBENCH_TRACE") == "1",
    )
