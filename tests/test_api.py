import re
from pathlib import Path

import numpy as np

import randcs

PUBLIC_NAMES = {
    "RecoveryConfig",
    "ExperimentGrid",
    "run_grid",
    "build_ensemble",
    "measure",
    "generate_binary_signal",
    "determine_support",
    "recover_suppressed",
    "estimate_noise_floor",
    "back_project",
    "dump_ensemble",
    "load_ensemble",
    "GaussianSource",
    "sample_gaussian_matrix",
    "omp",
    "biht",
    "nbiht",
    "sign_quantize",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_top_level_names_are_the_public_api():
    assert set(randcs.__all__) == PUBLIC_NAMES
    assert len(randcs.__all__) == len(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(randcs, name) is not None


def test_readme_quickstart_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    signal, support, recovered = (namespace[k] for k in ("signal", "support", "recovered"))
    assert isinstance(support, frozenset) and frozenset(np.flatnonzero(signal)) <= support
    assert recovered.support == frozenset(np.flatnonzero(signal))
