"""The command line, fuzzed in process over mutated configs and DNF texts.

Each example writes a DNF file, in the text or the JSON form with n <= 6,
mutated or not, and a config of two instances: a mutated first one (that
file, a generator or neither) and a small valid generator, with up to two
of the config's own keys given junk values.  It then runs one subcommand
through ``cli.main``.  No exception may escape, the exit code is 0 or 2,
a written report or spectrum is strict JSON, and a first instance that
cannot be loaded leaves the second instance's entry in the report.
A second property runs ``gen`` with sizes and term counts within the caps
or far beyond them, then ``covers --set`` as a mask or a list of
variables: each exits 0 or 2 at once, with nothing allocated or drawn for
a size beyond its cap.
"""
from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from dnf_fourier.cli import main
from dnf_fourier.experiments import CONFIG_FIELDS
from dnf_fourier.generators import FAMILIES, TERM_CAP

#: Number texts that ``json.dumps`` does not write, spliced in by ``_dumps``.
_TOKENS = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "2.00000000000000000001",
           "2.0", "-0.0", "1e-400")
#: A small valid instance, the second of every config.
_SECOND = {"generator": {"family": "tribes", "params": {"w": 1, "t": 2}}}

_junk = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-1, max_value=3),
    st.sampled_from(["x", "1/0", "1/3", "2", "-1", "", "all", "3/8"]),
    st.sampled_from(_TOKENS).map(lambda token: f"@{token}@"),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "w"]), st.integers(0, 2), max_size=1),
)
_params = sorted({name for family in FAMILIES.values()
                  for name in family.ints + family.bools} | {"width"})


def _dumps(obj) -> str:
    """``obj`` as JSON, with each "@token@" string written as its bare token."""
    text = json.dumps(obj)
    for token in _TOKENS:
        text = text.replace(f'"@{token}@"', token)
    return text


@st.composite
def _dnf_texts(draw) -> bytes:
    n = draw(st.integers(min_value=1, max_value=6))
    literals = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v]))
    terms = draw(st.lists(st.lists(literals, max_size=3, unique_by=abs), max_size=4))
    if draw(st.booleans()):
        obj = {"n": n, "terms": terms}
        mutation = draw(st.sampled_from(["none", "n", "terms", "term", "key"]))
        if mutation == "n":
            obj["n"] = draw(st.one_of(_junk, st.sampled_from([0, 7, 25])))
        elif mutation == "terms":
            obj["terms"] = draw(_junk)
        elif mutation == "term" and terms:
            obj["terms"][0] = draw(st.one_of(_junk, st.just([n + 1])))
        elif mutation == "key":
            del obj[draw(st.sampled_from(["n", "terms"]))]
        return _dumps(obj).encode()
    lines = [f"n={n}", *(" ".join(map(str, t)) if t else "0" for t in terms)]
    mutation = draw(st.sampled_from(["none", "header", "line", "beyond", "bytes"]))
    if mutation == "header":
        lines[0] = draw(st.sampled_from(["", "n=0", "n=25", "n=x", "n=-1", "m=3", "n=2.5"]))
    elif mutation == "line":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(
            ["x", "1 x", "0 1", "--1", "1.5", "# a comment", "   ", "1 -1"])))
    elif mutation == "beyond":
        lines.append(str(n + 1))
    text = "\n".join(lines) + "\n"
    return text.encode() + (b"\xff\n" if mutation == "bytes" else b"")


@st.composite
def _first_instances(draw, dnf_path: str):
    kind = draw(st.sampled_from(["file", "generator", "junk"]))
    if kind == "file":
        return {"file": dnf_path}
    if kind == "junk":
        return draw(st.dictionaries(st.sampled_from(["file", "generator", "x"]), _junk,
                                    max_size=2))
    gen = {"family": draw(st.sampled_from([*FAMILIES, "nope"])),
           "params": draw(st.dictionaries(st.sampled_from(_params), _junk, max_size=4))}
    if draw(st.booleans()):
        gen["seed"] = draw(_junk)
    return {"generator": gen}


def _strict(name: str):
    raise AssertionError(f"the report holds the non-JSON constant {name}")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_command_line_survives_mutated_inputs(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    dnf_path, cfg_path, out = tmp / "f.dnf", tmp / "cfg.json", tmp / "out.json"
    dnf_path.write_bytes(data.draw(_dnf_texts(), label="dnf"))
    first = data.draw(_first_instances(str(dnf_path)), label="first")
    config = {"instances": [first, _SECOND], "d_max": 2, "checks": "all"}
    mutated = data.draw(st.lists(st.sampled_from([*CONFIG_FIELDS, "dmax"]), max_size=2,
                                 unique=True), label="mutated keys")
    for key in mutated:
        config[key] = data.draw(_junk, label=key)
    cfg_path.write_text(_dumps(config))
    command = data.draw(st.sampled_from(
        ["verify", "sweep", "spectrum", "covers", "encdec-test"]), label="command")
    argv = {
        "verify": ["verify", str(cfg_path), "--out", str(out), "--workers", "1"],
        "sweep": ["sweep", str(cfg_path), "--out", str(out), "--workers", "1"],
        "spectrum": ["spectrum", str(dnf_path), "--out", str(out)],
        "covers": ["covers", str(dnf_path), "--set", "1,2"],
        "encdec-test": ["encdec-test", str(dnf_path), "--d-max", "3"],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    assert status in (0, 2)
    if not out.exists():
        return
    report = json.loads(out.read_text(), parse_constant=_strict)
    if command in ("verify", "sweep") and "instances" not in mutated:
        first, second = report["instances"]
        assert second["label"] == "tribes(t=2,w=1,seed=0)"
        assert "error" not in second and "fault" not in second
        assert (status == 2) == ("error" in first)


#: A size small and within the caps, or beyond them by any amount.
_SIZES = st.one_of(st.integers(min_value=-1, max_value=8),
                   st.integers(min_value=25, max_value=10**15))
#: The number of terms (``s``, ``n_terms``): each term is drawn, so it
#: stays small within the term cap, or lies beyond it by any amount.
_TERMS = st.one_of(st.integers(min_value=-1, max_value=50),
                   st.integers(min_value=TERM_CAP + 1, max_value=10**15))


@given(st.data())
@settings(max_examples=75, deadline=None)
def test_gen_and_covers_survive_any_size(tmp_path_factory, data):
    # gen with each param of a family drawn, then covers on the DNF it
    # wrote (or on tribes(2,2)) with --set as a mask or a list of variables
    tmp = tmp_path_factory.mktemp("fuzz-sizes")
    dnf_path = tmp / "g.dnf"
    family = data.draw(st.sampled_from(list(FAMILIES)), label="family")
    argv = ["gen", family, "--out", str(dnf_path)]
    for name in FAMILIES[family].ints:
        size = data.draw(_TERMS if name in ("s", "n_terms") else _SIZES, label=name)
        argv += [f"--{name.replace('_', '-')}", str(size)]
    for name in FAMILIES[family].bools:
        if data.draw(st.booleans(), label=name):
            argv.append(f"--{name.replace('_', '-')}")
    if data.draw(st.booleans(), label="seeded"):
        argv += ["--seed", str(data.draw(st.integers(min_value=-1, max_value=1 << 64)))]
    subset = data.draw(st.one_of(
        st.integers(min_value=-1, max_value=10**15).map(str),
        st.lists(st.one_of(st.integers(min_value=-1, max_value=9), _SIZES), min_size=2,
                 max_size=4).map(lambda vs: ",".join(map(str, vs)))), label="--set")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)
        if not dnf_path.exists():
            main(["gen", "tribes", "--w", "2", "--t", "2", "--out", str(dnf_path)])
        # "--set=" takes a list that starts with a minus sign as a value
        assert main(["covers", str(dnf_path), f"--set={subset}"]) in (0, 2)
