"""Each discount family is one row of outside forms on its class in
discount._FAMILIES (see discount._Base): mini-language names, the JSON
keys of its params and its table footer note. No module compares family
names more often than it does now."""

from __future__ import annotations

import inspect
import json
import pathlib
import re

import pytest

import horizonlab.cli as cli
import horizonlab.discount as d
import horizonlab.reward as r

EXAMPLES = {
    "finite": d.finite(3),
    "geometric": d.geometric(0.25),
    "quadratic": d.quadratic().with_scale(2.0),
    "power": d.power(0.5),
    "harmonic_like": d.harmonic_like(),
    "step_log": d.step_log(),
    "alternating_zero": d.alternating_zero(d.geometric(0.5)),
    "cosine_modulated": d.cosine_modulated(),
    "patched": d.build_patched([1, 2]),
    "custom": d.custom([0.5, 0.25], ("power", 1.0)),
}

# values for the placeholders of the cli module docstring's mini-language
PLACEHOLDERS = {"M": "300", "G": "0.5", "EPS": "0.5", "T1,T2,...": "1,2", "X": "0.5",
                "X1,X2,...": "1,0,0.5", "P1,P2,...": "2,5,9"}


def test_every_family_has_an_example() -> None:
    assert set(EXAMPLES) == set(d._FAMILIES)


@pytest.mark.parametrize("family", sorted(EXAMPLES))
def test_family_row_round_trips_and_has_a_note(family) -> None:
    spec, cls = EXAMPLES[family], d._FAMILIES[family]
    doc = d.spec_to_dict(spec)
    assert set(doc["params"]) == set(cls.keys)
    assert d.spec_from_dict(json.loads(json.dumps(doc))) == spec
    assert isinstance(d.asymptotic_note(spec), str) and d.asymptotic_note(spec)
    if family != "patched":  # thresholds on the command line, segments in JSON
        constructor = getattr(cls, "make", d.custom)
        assert tuple(inspect.signature(constructor).parameters) == cls.keys


@pytest.mark.parametrize("family", sorted(EXAMPLES))
def test_every_family_but_custom_has_cli_names(family) -> None:
    cls = d._FAMILIES[family]
    assert bool(cls.cli_names) == (family != "custom")
    arg = {"finite": ":3", "geometric": ":0.25", "power": ":0.5", "patched": ":1,2",
           "alternating_zero": ":geometric:0.5"}.get(family, "")
    for name in cls.cli_names:
        assert cli.parse_discount(name + arg) == EXAMPLES[family].unscaled()


def _docstring_terms(section: str) -> list:
    """The terms listed for section (discounts or rewards) in the cli
    module docstring, placeholders filled in."""
    lines = cli.__doc__.split("Spec mini-language")[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == [section])
    words = lines[start].split()[1:]
    for line in lines[start + 1:]:
        if not line.startswith(" " * 13):
            break
        words += line.split()
    terms = []
    for word in words:
        if word.endswith("[:BASE]"):
            terms += [word[: -len("[:BASE]")], word[: -len("[:BASE]")] + ":quadratic"]
            continue
        name, colon, arg = word.partition(":")
        terms.append(name + colon + PLACEHOLDERS.get(arg, arg))
    return terms


def test_every_docstring_name_parses_and_every_name_is_listed() -> None:
    discounts, rewards = _docstring_terms("discounts"), _docstring_terms("rewards")
    assert len(discounts) == 13 and len(rewards) == 7
    for term in discounts:
        assert isinstance(cli.parse_discount(term), d.DiscountSpec)
    for term in rewards:
        assert isinstance(cli.parse_reward(term), r.RewardSpec)
    listed = {t.partition(":")[0] for t in discounts + rewards}
    names = {n for names, _, _ in d.CLI_FORMS + r.CLI_FORMS for n in names}
    assert listed == names


# ROADMAP item 3's count of lines that compare a family name
COMPARISON = re.compile(r"""(family|fam|gen|name|kind|params\[0\]) *(==|!=|in) *[\\("']"""
                        r"""|is_binary_runs\(""")
CEILINGS = {"cli": 2, "discount": 13, "reward": 38, "value": 6, "corpus": 3}


def test_family_name_comparisons_do_not_grow() -> None:
    counts = {
        path.stem: sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                       if COMPARISON.search(line))
        for path in pathlib.Path(d.__file__).parent.glob("*.py")
    }
    assert {m: n for m, n in counts.items() if n > CEILINGS.get(m, 0)} == {}
