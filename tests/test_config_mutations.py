"""Mutated preset configs either load or fail with a config error naming a path.

Each example applies one or two mutations to a bundled preset: drop a key
or list entry, duplicate a list entry, add an unknown key, or set a value of
the wrong type, a non-finite or huge number or an out-of-range one.  Only
``load_config`` runs, so failures of the model at extreme magnitudes are out
of scope here.
"""

import copy
import math
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from suisim.config import PRESET_NAMES, ConfigError, load_config, preset_config

UNKNOWN_KEY = "unknown_knob"
BAD_VALUES = (
    None, "x", "auto-dark-fringe", [], [1.0], {}, {"x": 1}, True, False,
    -1, 0, 0.5, math.nan, math.inf, -math.inf, 1e200, -1e200, 10**400,
)
# A quoted config path: a top-level key, then keys and list indices.
QUOTED_PATH = re.compile(
    rf"'(?:scheme|losses|tones|ports|sim|output|{UNKNOWN_KEY})(?:\[\d+\])?(?:\.\w+(?:\[\d+\])?)*'"
)


def slots(node):
    """Every (container, key) pair below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from slots(child)


@st.composite
def mutated_presets(draw):
    doc = preset_config(draw(st.sampled_from(PRESET_NAMES)))
    for _ in range(draw(st.integers(1, 2))):
        children = [container[key] for container, key in slots(doc)]
        operation = draw(st.sampled_from(["drop", "set", "unknown", "duplicate"]))
        if operation == "unknown":
            mapping = draw(st.sampled_from([doc] + [c for c in children if isinstance(c, dict)]))
            mapping[UNKNOWN_KEY] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
            continue
        lists = [c for c in children if isinstance(c, list) and c]
        if operation == "duplicate" and lists:
            entries = draw(st.sampled_from(lists))
            entries.append(copy.deepcopy(draw(st.sampled_from(entries))))
            continue
        container, key = draw(st.sampled_from(list(slots(doc))))
        if operation == "drop":
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return doc


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutated_presets())
def test_mutated_preset_loads_or_names_its_path(doc):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deep modulation
            load_config(doc)
    except ConfigError as exc:
        assert QUOTED_PATH.search(str(exc)), str(exc)
