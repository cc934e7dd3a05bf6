"""Start-up hook of traced benchmark runs: installs the layer spans in
every service process (this directory is on ``PYTHONPATH`` only then)."""

import os

if os.environ.get("PUSHBENCH_TRACE_DIR"):
    import benchtrace

    benchtrace.install_service(os.environ["PUSHBENCH_TRACE_DIR"])
