"""The two parameter checks of pemnet.errors, every public entry point
that sends its parameters through them, and the exception hierarchy that every
raise in the package names."""

import ast
import builtins
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import pemnet
from pemnet.bench import SweepSpec, run_trial
from pemnet.dynamics import SDDParams, TimeSeries, add_measurement_noise
from pemnet.errors import (ConfigurationError, PemnetError, _require_integers,
                           _require_reals)
from pemnet.graphs import GraphConfig
from pemnet.motifs import (
    contribution_cov,
    contribution_lagk,
    contribution_table,
    covariance_series,
    psi,
)

MOTIF_KW = dict(eps=0.5, tau=1.0, sigma=1.0, n=2, dt_tau=0.5)
SERIES_KW = dict(eps=0.5, tau=1.0, sigma=1.0, dt_tau=0.5)
STABLE = np.array([[0.0, 1.0], [1.0, 0.0]])
SERIES = TimeSeries(np.zeros((4, 2)), dt=0.5)


def _motif_entries(names):
    """(entry, the name its refusal gives, call) for each motif function and
    each of names; dt_tau is refused as dt/tau."""
    calls = {
        "contribution_cov": lambda kw: contribution_cov(1, 1, **kw),
        "contribution_lagk": lambda kw: contribution_lagk(1, 1, 1, **kw),
        "contribution_table": lambda kw: contribution_table([1], 2, **kw),
        "covariance_series": lambda kw: covariance_series(
            STABLE, **{k: v for k, v in kw.items() if k != "n"}),
    }
    return [(entry, "dt/tau" if name == "dt_tau" else name,
             lambda v, call=call, name=name: call(dict(MOTIF_KW, **{name: v})))
            for entry, call in calls.items() for name in names]


REALS = [
    *[("SDDParams", name, lambda v, name=name: SDDParams(**{name: v}))
      for name in ("eps", "tau", "dt", "sigma", "eta")],
    *[("GraphConfig", name, lambda v, name=name: GraphConfig(**{name: v}))
      for name in ("d_e", "r_e", "rewire_p")],
    ("add_measurement_noise", "eta",
     lambda v: add_measurement_noise(SERIES, v, np.random.default_rng(0))),
    ("psi", "dt/tau", lambda v: psi(1, 1, v)),
    *_motif_entries(("eps", "tau", "sigma", "dt_tau")),
    ("covariance_series", "tol", lambda v: covariance_series(STABLE, tol=v, **SERIES_KW)),
]

COUNTS = [
    *[("SDDParams", name, lambda v, name=name: SDDParams(**{name: v}))
      for name in ("delta", "n_obs")],
    *[("GraphConfig", name, lambda v, name=name: GraphConfig(**{name: v}))
      for name in ("n", "delta")],
    ("psi", "p", lambda v: psi(v, 1, 0.5)),
    ("contribution_cov", "l_b", lambda v: contribution_cov(v, 1, **MOTIF_KW)),
    ("contribution_lagk", "k", lambda v: contribution_lagk(v, 1, 1, **MOTIF_KW)),
    ("contribution_lagk", "l_f", lambda v: contribution_lagk(1, 1, v, **MOTIF_KW)),
    ("contribution_cov", "n", lambda v: contribution_cov(1, 1, **dict(MOTIF_KW, n=v))),
    ("contribution_lagk", "n", lambda v: contribution_lagk(0, 1, 1, **dict(MOTIF_KW, n=v))),
    ("contribution_table", "n", lambda v: contribution_table([1], 2, **dict(MOTIF_KW, n=v))),
    ("covariance_series", "l_max", lambda v: covariance_series(STABLE, l_max=v, **SERIES_KW)),
    ("contribution_table", "l_max", lambda v: contribution_table([1], v, **MOTIF_KW)),
    *[("run_trial", name,
       lambda v, name=name: run_trial(GraphConfig(), SDDParams(), ["lc"],
                                      **dict(dict(seed=0, trial=0), **{name: v})))
      for name in ("seed", "trial")],
    *[("SweepSpec", name, lambda v, name=name: SweepSpec(**{name: v}))
      for name in ("trials", "jobs", "seed")],
    *[("SweepSpec.grid", "n_obs" if key == "N" else key,
       lambda v, key=key: SweepSpec(grid={key: [v]}))
      for key in ("n", "delta", "N", "delta_hat")],
]


@pytest.mark.parametrize("value", ["0.5", None, np.nan, np.inf], ids=repr)
@pytest.mark.parametrize("entry, name, call", REALS,
                         ids=[f"{entry}-{name}" for entry, name, _ in REALS])
def test_real_parameter_that_is_no_number_in_range_refused(entry, name, call, value):
    # strings and None once raised a bare TypeError at SDDParams, GraphConfig,
    # add_measurement_noise and covariance_series' tol
    with pytest.raises(ConfigurationError, match=f"^{re.escape(name)} must lie in "):
        call(value)


@pytest.mark.parametrize("entry, name, call", COUNTS,
                         ids=[f"{entry}-{name}" for entry, name, _ in COUNTS])
def test_true_is_no_count(entry, name, call):
    # a bool is an int to Python: SDDParams(delta=True) once ran at delta = 1
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got True"):
        call(True)


@pytest.mark.parametrize("entry, name, call", COUNTS,
                         ids=[f"{entry}-{name}" for entry, name, _ in COUNTS])
def test_whole_float_is_no_count(entry, name, call):
    # the sweep grid once read 2.0 as 2
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got 2.0"):
        call(2.0)


@pytest.mark.parametrize("interval, inside, outside", [
    ("(0, 1]", [1e-300, 0.5, 1, 1.0, np.float32(0.25)], [0, 0.0, 1.0000001, -np.inf]),
    ("[0, 1]", [0, 0.0, 1.0, np.int64(1)], [-1e-300, 1.5, np.inf]),
    ("(0, inf)", [1e-300, 3, 1e308], [0.0, -2.0, np.inf]),
    ("[0, inf)", [0, 0.0, 1e308, np.float64(2.5)], [-0.5, np.inf, -np.inf]),
])
def test_require_reals_intervals(interval, inside, outside):
    _require_reals(interval, **{f"v{i}": v for i, v in enumerate(inside)})
    for value in [*outside, np.nan, "0.5", None, True, 1j]:
        with pytest.raises(ConfigurationError, match=re.escape(f"x must lie in {interval}, got")):
            _require_reals(interval, x=value)


def test_require_integers_minimum():
    _require_integers(2, a=2, b=np.int64(3), c=10**30)
    _require_integers(a=-5)  # no minimum: any integer
    with pytest.raises(ConfigurationError, match="b must be >= 2, got 1"):
        _require_integers(2, a=2, b=1)
    with pytest.raises(ConfigurationError, match="a must be an integer, got False"):
        _require_integers(a=False)
    with pytest.raises(ConfigurationError, match="a must be an integer"):
        _require_integers(a=np.bool_(True))


def argparse_types(tree):
    """The names passed as type= to a call in tree, or called to build one."""
    names = set()
    for node in ast.walk(tree):
        for kw in getattr(node, "keywords", ()):
            value = kw.value.func if isinstance(kw.value, ast.Call) else kw.value
            if kw.arg == "type" and isinstance(value, ast.Name):
                names.add(value.id)
    return names


def stray_raises(path):
    """'<file>:<line>' of each raise in path that names no PemnetError subclass.
    A raise of a value (raise result) re-raises what was caught, and the CLI's
    argparse types raise argparse.ArgumentTypeError."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stem = path.stem
    module = importlib.import_module("pemnet" if stem == "__init__" else f"pemnet.{stem}")
    types = argparse_types(tree) if stem == "cli" else set()
    stray = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            called = isinstance(node.exc, ast.Call)
            target = node.exc.func if called else node.exc
            if (isinstance(target, ast.Attribute) and ast.unparse(target)
                    == "argparse.ArgumentTypeError" and getattr(top, "name", None) in types):
                continue
            name = target.id if isinstance(target, ast.Name) else None
            obj = getattr(module, name, getattr(builtins, name, None)) if name else None
            if isinstance(obj, type) and issubclass(obj, PemnetError):
                continue
            if not called and name and not isinstance(obj, type):
                continue  # a caught value, raised again
            stray.append(f"{path.name}:{node.lineno}")
    return stray


def test_every_raise_names_the_hierarchy():
    paths = sorted(Path(pemnet.__file__).parent.glob("*.py"))
    assert paths and [s for path in paths for s in stray_raises(path)] == []
