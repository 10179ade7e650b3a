"""Set-up probe: what a fresh interpreter pays before it can run anything.

Run by ``run.py`` in a fresh interpreter per sample::

    python3 perfbench/probe.py

Imports the command-line entry point and the experiment API, resolves
the engine backends (the ``repro.registry`` probe, which loads or builds
the compiled engine) and constructs the experiment configs, then prints
the three phase times as one JSON line.
"""

from __future__ import annotations

import json
import time

t0 = time.perf_counter()
import repro.api  # noqa: E402
import repro.cli  # noqa: E402, F401
import repro.experiments.characterize  # noqa: E402, F401
from repro import registry  # noqa: E402

t1 = time.perf_counter()
backends = registry.backends.names()
t2 = time.perf_counter()
from repro.experiments.defaults import (  # noqa: E402
    characterization_config,
    default_config,
)

default_config(num_threads=2)
characterization_config()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "backend_probe_s": t2 - t1,
                  "config_s": t3 - t2, "backends": list(backends),
                  "version": repro.__version__}))
