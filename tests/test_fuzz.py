"""Fuzz the model loader and the command line, one mutated field per document.

Documents come from `conftest.random_model` and `random_spin_model`.  One
field is replaced by a hostile token, a list is lengthened or shortened,
or a family is pinned at a site off the lattice.  Whatever the document,
the command line must exit with a documented code, exit 1 exactly when
the loader refuses the file, write no traceback or warning, and write
only finite numbers.
"""

import contextlib
import csv
import io
import json
import os
import re
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy import cli
from occupancy.model import load_model, model_to_dict

from conftest import random_model, random_spin_model

# NaN, a literal past the float range, a signed zero, the edges of the
# float range, and three wrong types: a string, a bool and a list
TOKENS = ("NaN", "1e999", "-0.0", "1e308", "1e-170", '"0.5"', "true", "[0.5]")
_MARK = "@mutated@"
_NON_FINITE = re.compile(r"(?<![a-z])[-+]?(nan|inf)(inity)?(?![a-z])", re.IGNORECASE)


def _paths(node, path=()):
    """Every (path, value) below `node`, parents before children."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _mutated_text(doc, data) -> str:
    """The document as JSON with one field mutated; `data` draws the mutation."""
    paths = list(_paths(doc))
    kind = data.draw(st.sampled_from(("token", "length", "pin")))
    if kind == "token":
        path, _ = data.draw(st.sampled_from(paths))
        token = data.draw(st.sampled_from(TOKENS))
        _set(doc, path, _MARK)
        return json.dumps(doc).replace(json.dumps(_MARK), token)
    if kind == "length":
        path, items = data.draw(st.sampled_from([p for p in paths if isinstance(p[1], list)]))
        _set(doc, path, items + items[-1:] if data.draw(st.booleans()) else items[:-1])
    else:
        path, family = data.draw(st.sampled_from(
            [p for p in paths if isinstance(p[1], dict) and "family" in p[1]]))
        site = data.draw(st.sampled_from((doc["n"], doc["n"] + 2, -1)))
        _set(doc, path, {**family, "pins": {str(site): 0.5}})
    return json.dumps(doc)


def _refuses(path) -> bool:
    try:
        load_model(path)
    except Exception:
        return True
    return False


def _reject_constant(token):
    raise ValueError(f"{token} in a JSON report")


def _run(argv):
    """(exit code, stdout, stderr, warnings) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _routes(spin: bool, model: str, out: str):
    """(argv, paths it writes) of every route a document runs through."""
    if spin:
        return [(["check", "--samples", "64", "--out", out + ".json"], [out + ".json"]),
                (["run", "--mode", "meanfield", "--t", "0.5", "--out", out + ".csv"],
                 [out + ".csv"]),
                (["verify", "--theorem", "thm2", "--t", "0.5", "--grid-points", "3",
                  "--samples", "64", "--out", out + ".json"], [out + ".json"]),
                # thm4 writes its metric table next to the JSON report
                (["verify", "--theorem", "thm4", "--t", "0.25", "--delta-grid",
                  "0.125,0.0625", "--samples", "64", "--out", out + ".json"],
                 [out + ".json", out + ".json.csv"]),
                (["bridge", "--t", "0.25", "--delta-grid", "0.125,0.0625",
                  "--out", out + ".csv"], [out + ".csv"])]
    return [(["check", "--samples", "64", "--out", out + ".json"], [out + ".json"]),
            (["run", "--mode", "exact", "--t", "3", "--out", out + ".csv"], [out + ".csv"]),
            (["run", "--mode", "mc", "--t", "3", "--reps", "64", "--out", out + ".csv"],
             [out + ".csv"]),
            (["verify", "--theorem", "thm1", "--t", "3", "--samples", "64",
              "--out", out + ".json"], [out + ".json"]),
            (["verify", "--theorem", "thm3", "--t", "3", "--m", "2", "--samples", "64",
              "--out", out + ".json"], [out + ".json"])]


def _check_written(path):
    """Every number in a written CSV or JSON report is finite."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".json"):
        json.loads(text, parse_constant=_reject_constant)
        return
    for row in csv.reader(io.StringIO(text)):
        assert not any(_NON_FINITE.fullmatch(cell) for cell in row), row


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(spin=st.booleans(), n=st.integers(2, 3), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_mutated_documents_exit_cleanly(spin, n, seed, data):
    spec = random_spin_model(n, seed) if spin else random_model(n, seed)
    text = _mutated_text(model_to_dict(spec), data)
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "m.json")
        with open(model, "w", encoding="utf-8") as handle:
            handle.write(text)
        refused = _refuses(model)
        for argv, written in _routes(spin, model, os.path.join(tmp, "out")):
            code, out, err, caught = _run(argv + ["--model", model])
            assert code in range(5), (argv, text)
            assert (code == cli.EXIT_USAGE) == refused, (argv, text, err)
            assert caught == [] and "Traceback" not in err, (argv, text, caught)
            assert all(line.startswith("error: ") for line in err.splitlines()), err
            assert not _NON_FINITE.search(out), (argv, text, out)
            for path in written:
                if os.path.exists(path):
                    _check_written(path)
                    os.remove(path)
