"""The package's exports: loaded on first use, never cached, and what each
command loads in a fresh process."""

import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qzeros
from qzeros import cli, verify

SRC = Path(__file__).resolve().parents[1] / "src"
HOMES = qzeros._MODULE_OF  # exported name -> submodule


def test_every_export_is_the_submodule_object():
    assert set(qzeros.__all__) == {*HOMES, "__version__"}
    for name, module in HOMES.items():
        assert getattr(qzeros, name) is getattr(importlib.import_module(f"qzeros.{module}"), name), name


def test_second_entry_points_are_gone():
    """q has one check (``as_q``), a series one way to scale
    (``PolyExact.scale_arg``) and a q-Pochhammer product one function
    (``qpoch_finite``): QValue, the Rational alias, qpoch_vector and
    build_qhyper's scale are neither exported nor defined."""
    from qzeros import qcore

    for name in ("QValue", "Rational", "qpoch_vector"):
        assert name not in qzeros.__all__ and not hasattr(qcore, name), name
    assert list(inspect.signature(qzeros.build_qhyper).parameters) == ["spec"]


def test_dir_lists_every_export():
    assert set(dir(qzeros)) >= set(qzeros.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qzeros.no_such_name
    assert not hasattr(qzeros, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qzeros import *", namespace)
    for name in qzeros.__all__:
        assert namespace[name] is getattr(qzeros, name), name


def test_from_import_of_a_submodule_gives_the_submodule():
    from qzeros import analysis

    assert analysis is sys.modules["qzeros.analysis"]
    assert inspect.ismodule(analysis)


def test_exports_are_read_through_not_cached(monkeypatch):
    """A name rebound in its submodule is what the package gives, and the
    original again once the rebinding is undone: nothing exported is held in
    the package's own namespace."""
    from qzeros import roots

    real = roots.isolate_real_roots
    sentinel = object()
    monkeypatch.setattr(roots, "isolate_real_roots", sentinel)
    assert qzeros.isolate_real_roots is sentinel
    monkeypatch.undo()
    assert qzeros.isolate_real_roots is real
    assert not set(vars(qzeros)) & set(HOMES)


# Runs each argv list through cli.main with stdout captured, then prints, as
# JSON, the qzeros submodules loaded after `import qzeros` and after each call.
_FOOTPRINT = """
import contextlib, io, json, sys
import qzeros
def loaded():
    return sorted(m for m in sys.modules if m.startswith("qzeros."))
steps = [["import", None, loaded()]]
from qzeros import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, loaded()])
print(json.dumps({"file": qzeros.__file__, "steps": steps}))
"""


def test_fresh_process_loads_verify_only_for_verify(tmp_path):
    """In a fresh process `import qzeros` loads no submodule, coeffs, roots
    and sweep load no analysis, lmesh and interlace do, none of them loads
    verify or qcalc, and verify then writes the bytes the in-process report
    writer gives."""
    config = {"qValues": ["1/2"], "nValues": [1, 2], "aValues": ["1/2"], "bValues": ["1/2"],
              "checkIds": ["contig-4", "thm2-lmesh"]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    family = ["--family", "little-q-jacobi", "--n", "3", "--q", "1/2", "--a", "1/2", "--b", "1/2"]
    calls = [  # loaded modules only accumulate, so the calls without analysis come first
        ["coeffs", *family],
        ["roots", *family],
        ["sweep", *family, "--vary", "b", "--values", "0,1/2"],
        ["lmesh", *family],
        ["interlace", *family, "--family2", "little-q-jacobi", "--n2", "2", "--a2", "1/4", "--b2", "1/4"],
        ["verify", "--config", str(cfg), "--report", str(report)],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert Path(doc["file"]).resolve().parent == SRC / "qzeros"
    (_, _, after_import), *commands, (verify_cmd, verify_code, after_verify) = doc["steps"]
    assert after_import == []
    assert [(command, code) for command, code, _ in commands] == [(argv[0], 0) for argv in calls[:-1]]
    for command, _, modules in commands:
        assert "qzeros.verify" not in modules and "qzeros.qcalc" not in modules, command
        assert ("qzeros.analysis" in modules) == (command in ("lmesh", "interlace")), command
    assert (verify_cmd, verify_code) == ("verify", 0)
    assert {"qzeros.verify", "qzeros.qcalc"} <= set(after_verify)

    entries = verify._report_entries(verify.GridSpec.from_json(config))
    expected = io.StringIO()
    cli._write_report(expected, entries, verify.summarize(entries))
    assert report.read_text(encoding="utf-8") == expected.getvalue()
