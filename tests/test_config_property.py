"""Property: load_config either raises ConfigError or returns a usable config."""

import copy
import json
import math
from dataclasses import astuple
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bolab.cli import _CONFIG, ConfigError, load_config
from bolab.model import _FAMILIES
from tests.conftest import CONFIG_DIR

BASE = json.loads((CONFIG_DIR / "separable.json").read_text())


def _paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


# every field of the bundled config, plus the two it leaves at their defaults
FIELDS = list(_paths(BASE)) + [("sweep",), ("threads",)]

# config paths read as integers; RunConfig holds each under the same dotted name
INTEGER_FIELDS = {("grid1", "n"), ("grid2", "n"), ("n_surfaces",), ("projector_rank",),
                  ("nuclear_levels",), ("exact_k",), ("seed",), ("threads",)}

# values at the edges of what the checks accept (also as short lists, as sweep
# takes them), drawn as often as everything else
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, "auto", "nan", "-inf", "1e400", -1, 0,
                         True, False, 1.5, 16.0, 16.7])
JSON_VALUES = EDGES | st.lists(EDGES | st.floats(), min_size=1, max_size=2) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | EDGES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=8)


@pytest.mark.parametrize("field", FIELDS, ids=".".join)
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(value=JSON_VALUES)
def test_load_config_rejects_or_returns_finite(tmp_path_factory, field, value):
    data = copy.deepcopy(BASE)
    target = data
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(data))  # NaN and +-Infinity are written as JSON literals
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert not isinstance(value, bool)  # no field reads a JSON boolean as a number
    floats = [cfg.model.M, cfg.model.m, *astuple(cfg.model.potential), *(cfg.sweep or ())]
    floats += [getattr(g, name) for g in (cfg.grid1, cfg.grid2) for name in ("x_min", "x_max", "h")]
    assert all(math.isfinite(x) for x in floats)
    assert cfg.seed >= 0 and cfg.threads >= 1
    if field in INTEGER_FIELDS:
        # no silent truncation: an accepted number is taken as written, a digit string as its int
        got = attrgetter(".".join(field))(cfg)
        assert got == (int(value) if isinstance(value, str) else value)


# every object level of a config, with the keys its table knows
LEVELS = {(): _CONFIG, ("model",): _CONFIG["model"][0], ("grid1",): _CONFIG["grid1"][0],
          ("grid2",): _CONFIG["grid2"][0], ("heavy",): _CONFIG["heavy"][0],
          ("model", "potential"): ("family", *_FAMILIES[BASE["model"]["potential"]["family"]][1])}


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: ".".join(level) or "top")
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(key=st.text(max_size=12), value=JSON_VALUES)
def test_unknown_key_at_any_level_is_named(tmp_path_factory, level, key, value):
    assume(key not in LEVELS[level])
    data = copy.deepcopy(BASE)
    target = data
    for name in level:
        target = target[name]
    target[key] = value
    path = tmp_path_factory.getbasetemp() / "unknown.json"
    path.write_text(json.dumps(data))
    dotted = ".".join((*level, key))
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value).startswith(f"unknown field '{dotted}'")
