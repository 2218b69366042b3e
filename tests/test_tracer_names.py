"""The benchmark's tracer still finds every package name it wraps.

perfbench/tracer.py replaces functions by module attribute name; a rename in
src/ would otherwise only surface when `perfbench/run.py --trace 1` runs.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = {
        (name, attr): getattr(module.MODULES[name], attr)
        for name, attr, _ in module.PLAIN_SPANS
    }
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for (name, attr), original in originals.items():
        assert getattr(module.MODULES[name], attr) is original
