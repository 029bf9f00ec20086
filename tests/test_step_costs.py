import importlib.util
import os
from pathlib import Path

from fluxsense import pea

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_costs.py"


def _load_script(monkeypatch):
    # the script sets the BLAS thread counts it finds unset; undone after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("step_costs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_costs_runs_the_window_product(monkeypatch, capsys):
    script = _load_script(monkeypatch)
    monkeypatch.setattr(script, "BENCHMARK", {"pea-coherent": script.BENCHMARK["pea-coherent"]})
    calls, product = [], pea._product_decisions

    def counted(*args):
        calls.append(args[0].shape)
        return product(*args)

    monkeypatch.setattr(pea, "_product_decisions", counted)
    monkeypatch.setattr("sys.argv", ["step_costs.py", "--repeats", "1"])
    script.main()
    out = capsys.readouterr().out
    assert out.startswith("pea-coherent: ")
    assert calls, "no step decided by the window product"
