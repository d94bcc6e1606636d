"""Each discount family is one row of outside forms on its class in
discount._FAMILIES (see discount._Base): mini-language names, the JSON
keys of its params and its table footer note. No module compares family
names more often than it does now. Every family answers its weights as
gamma_pair, which only _Base.gamma_iv boxes."""

from __future__ import annotations

import inspect
import json
import pathlib
import re

import pytest

import horizonlab
import horizonlab.cli as cli
import horizonlab.discount as d
import horizonlab.reward as r
from horizonlab import Interval

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
CEILINGS = {"cli": 2, "discount": 13, "reward": 29, "value": 6, "corpus": 3}


def test_family_name_comparisons_do_not_grow() -> None:
    counts = {
        path.stem: sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                       if COMPARISON.search(line))
        for path in pathlib.Path(d.__file__).parent.glob("*.py")
    }
    assert {m: n for m, n in counts.items() if n > CEILINGS.get(m, 0)} == {}


# -- one weight protocol: every family answers gamma_pair, and only
# _Base.gamma_iv boxes it

def test_only_the_base_boxes_weights() -> None:
    for cls in (*d._FAMILIES.values(), d._EvenWeights):
        assert "gamma_iv" not in vars(cls), cls.__name__


# gamma_iv(k).pair of each example family as the two protocols gave it
# before they were one, at k = 1, 2, 3, 2**53 + 1 and 10**310
WEIGHT_KS = [1, 2, 3, 2**53 + 1, 10**310]
WEIGHTS = {
    "alternating_zero": [(0.0, 0.0), (0.25, 0.25), (0.0, 0.0), (0.0, 0.0), (0.0, 5e-324)],
    "cosine_modulated": [(1.7337446579585793, 1.7337446579585891), (0.7499999999999986, 0.7500000000000014),
                         (0.23977972753921603, 0.23977972753921714),
                         (3.6977851993499024e-32, 3.6977857870970833e-32), (0.0, 5e-324)],
    "custom": [(0.49999999999999933, 0.5000000000000009), (0.24999999999999967, 0.25000000000000044),
               (0.11111111111111095, 0.11111111111111126), (1.2325951644078293e-32, 1.232595164407833e-32),
               (0.0, 5e-324)],
    "finite": [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0)],
    "geometric": [(0.25, 0.25), (0.0625, 0.0625), (0.015625, 0.015625), (0.0, 5e-324), (0.0, 5e-324)],
    "harmonic_like": [(1.040684490502802, 1.0406844905028056), (1.040684490502802, 1.0406844905028056),
                      (0.2761784832300738, 0.2761784832300748), (8.226357299583556e-20, 8.226357299583594e-20),
                      (1.9626605e-316, 1.962661e-316)],
    "patched": [(0.9999999999999987, 1.0000000000000018), (0.49999999999999933, 0.5000000000000009),
                (0.24999999999999967, 0.25000000000000044), (0.0, 5e-324), (0.0, 5e-324)],
    "power": [(0.9999999999999987, 1.0000000000000018), (0.3535533905932732, 0.3535533905932744),
              (0.19245008972987493, 0.1924500897298756), (1.1698100408045649e-24, 1.1698100408045876e-24),
              (0.0, 5e-324)],
    "quadratic": [(0.49999999999999956, 0.5000000000000007), (0.16666666666666646, 0.16666666666666685),
                  (0.08333333333333323, 0.08333333333333343), (1.2325951644078293e-32, 1.232595164407832e-32),
                  (0.0, 5e-324)],
    "step_log": [(1.0, 1.0), (0.25, 0.25), (0.0625, 0.0625), (3.0814879110195774e-33, 3.0814879110195774e-33),
                 (0.0, 5e-324)],
}


@pytest.mark.parametrize("family", sorted(EXAMPLES))
def test_boxed_weight_is_the_pair_with_its_recorded_bits(family) -> None:
    impl = d._impl(EXAMPLES[family])
    for k, want in zip(WEIGHT_KS, WEIGHTS[family]):
        pair = impl.gamma_pair(k)
        assert impl.gamma_iv(k) == Interval(*pair), k
        assert pair == want, k


def test_every_exported_name_resolves() -> None:
    for name in horizonlab.__all__:
        assert getattr(horizonlab, name) is not None, name
