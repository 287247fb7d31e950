import importlib.util
from pathlib import Path

import morphcalc

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_layer_names_a_morphcalc_attribute():
    missing = []
    for module_name, attr, _ in tracing.LAYERS:
        owner = getattr(morphcalc, module_name)
        if attr.startswith("MorphPoly."):
            owner, attr = owner.MorphPoly, attr.split(".", 1)[1]
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
