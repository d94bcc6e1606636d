"""Each discount family is one row of outside forms on its class in
discount._FAMILIES (see discount._Base): mini-language names, the JSON
keys of its params and its table footer note. No module compares family
names more often than it does now. Every family answers its weights as
gamma_pair, which only _Base.gamma_iv boxes, and its tails as tail_pair,
which only _Base.tail boxes."""

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
import horizonlab.value as v
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


def test_only_the_base_boxes_tails() -> None:
    for cls in (*d._FAMILIES.values(), d._EvenWeights):
        assert not {"tail", "tail_batch"} & set(vars(cls)), cls.__name__


# tail(k, target).pair of each example family, and of alternating over
# quadratic and over cosine, as the families answered Gamma_k when some
# of them computed Intervals and some pairs; a typed error by its name
TAIL_FAMILIES = {**EXAMPLES, "alternating_zero:quadratic": d.alternating_zero(),
                 "alternating_zero:cosine_modulated": d.alternating_zero(d.cosine_modulated())}
TAIL_KS = [1, 2, 3, 150, 2**53 + 1, 10**310]
TAILS = {
    ('alternating_zero', None): [(0.3333333333333244, 0.33333333333334225),
        (0.3333333333333244, 0.33333333333334225), (0.0833333333333311, 0.08333333333333556),
        (9.341989762165196e-46, 9.341989762165697e-46), (0.0, 2e-323), (0.0, 2e-323)],
    ('alternating_zero', 1e-09): [(0.3333333333333244, 0.33333333333334225),
        (0.3333333333333244, 0.33333333333334225), (0.0833333333333311, 0.08333333333333556),
        (9.341989762165196e-46, 9.341989762165697e-46), (0.0, 2e-323), (0.0, 2e-323)],
    ('alternating_zero:cosine_modulated', None): [(1.0263783023378459, 1.0264088164346588),
        (1.0263783023378459, 1.0264088164346588), (0.2763783023378953, 0.2764088164346094),
        (0.006796834479237893, 0.006798741631180394), 'GuardExceeded', 'GuardExceeded'],
    ('alternating_zero:cosine_modulated', 1e-09): [(1.0263783023378459, 1.0264088164346588),
        (1.0263783023378459, 1.0264088164346588), (0.2763783023378953, 0.2764088164346094),
        (0.006796834479237893, 0.006798741631180394), 'GuardExceeded', 'GuardExceeded'],
    ('alternating_zero:quadratic', None): [(0.3068527599516529, 0.3068528789865364),
        (0.3068527599516529, 0.3068528789865364), (0.14018609340089644, 0.14018621220378985),
        (0.003344443283051802, 0.003344445112164444), (5.551115123125776e-17, 5.551115123125789e-17),
        (4.9999999999963e-311, 5.000000000002e-311)],
    ('alternating_zero:quadratic', 1e-09): [(0.3068528192072433, 0.30685281967288025),
        (0.3068528192072433, 0.30685281967288025), (0.14018615254061, 0.1401861530061803),
        (0.0033444439668391464, 0.0033444444282804873), (5.551115123125776e-17, 5.551115123125789e-17),
        (4.9999999999963e-311, 5.000000000002e-311)],
    ('cosine_modulated', None): [(3.2259518876802558, 3.2259519323368604),
        (1.492207229721785, 1.4922072743781627), (0.7422072297218343, 0.7422072743781134),
        (0.013564478208379981, 0.013564522864563095), (2.2204460492503091e-16, 2.220446049250318e-16),
        (9.9999999999995e-311, 3.00000000000004e-310)],
    ('cosine_modulated', 1e-09): [(3.2259519099557368, 3.225951910081157),
        (1.492207251997267, 1.492207252122458), (0.7422072519973165, 0.7422072521224086),
        (0.013564500483862315, 0.013564500608858108), (2.2204460492503091e-16, 2.220446049250318e-16),
        (9.9999999999995e-311, 3.00000000000004e-310)],
    ('custom', None): [(1.0833333333333308, 1.1944444444444478), (0.5833333333333313, 0.6944444444444471),
        (0.3333333333333318, 0.44444444444444653), (0.006666666666666634, 0.006711111111111151),
        (1.1102230246251435e-16, 1.1102230246251728e-16), (9.9999999999886e-311, 1.0000000000015e-310)],
    ('custom', 1e-09): [(1.0833333333333308, 1.1944444444444478), (0.5833333333333313, 0.6944444444444471),
        (0.3333333333333318, 0.44444444444444653), (0.006666666666666634, 0.006711111111111151),
        (1.1102230246251435e-16, 1.1102230246251728e-16), (9.9999999999886e-311, 1.0000000000015e-310)],
    ('finite', None): [(3.0, 3.0), (2.0, 2.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
    ('finite', 1e-09): [(3.0, 3.0), (2.0, 2.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
    ('geometric', None): [(0.3333333333333331, 0.33333333333333354),
        (0.08333333333333327, 0.08333333333333338), (0.02083333333333332, 0.020833333333333346),
        (6.545457953730297e-91, 6.545457953730306e-91), (0.0, 5e-324), (0.0, 5e-324)],
    ('geometric', 1e-09): [(0.3333333333333331, 0.33333333333333354),
        (0.08333333333333327, 0.08333333333333338), (0.02083333333333332, 0.020833333333333346),
        (6.545457953730297e-91, 6.545457953730306e-91), (0.0, 5e-324), (0.0, 5e-324)],
    ('harmonic_like', None): [(2.483379531391762, 3.52406402189458),
        (1.4426950408889616, 2.4833795313917726), (0.9102392266268361, 1.1864177098569142),
        (0.19957549119135481, 0.19984102703591722), (0.027220661148848333, 0.027220661148848416),
        (0.0014009499416233913, 0.0014009499416233957)],
    ('harmonic_like', 1e-09): [(2.483379531391762, 3.52406402189458),
        (1.4426950408889616, 2.4833795313917726), (0.9102392266268361, 1.1864177098569142),
        (0.19957549119135481, 0.19984102703591722), (0.027220661148848333, 0.027220661148848416),
        (0.0014009499416233913, 0.0014009499416233957)],
    ('patched', None): [(2.00019465397596, 2.000194653975977), (1.0001946539759639, 1.0001946539759723),
        (0.500194653975966, 0.5001946539759702), (3.8228010428533566e-05, 3.8228010428535816e-05),
        (0.0, 7e-323), (0.0, 5e-324)],
    ('patched', 1e-09): [(2.00019465397596, 2.000194653975977), (1.0001946539759639, 1.0001946539759723),
        (0.500194653975966, 0.5001946539759702), (3.8228010428533566e-05, 3.8228010428535816e-05),
        (0.0, 7e-323), (0.0, 5e-324)],
    ('power', None): [(1.9999999999999964, 3.000000000000009), (1.4142135623730918, 1.7677669529663738),
        (1.1547005383792484, 1.347150628109131), (0.16329931618554466, 0.1638436472394977),
        (2.10734242554468e-08, 2.107342425544725e-08), (1.9999999999996833e-155, 2.000000000000329e-155)],
    ('power', 1e-09): [(1.9999999999999964, 3.000000000000009), (1.4142135623730918, 1.7677669529663738),
        (1.1547005383792484, 1.347150628109131), (0.16329931618554466, 0.1638436472394977),
        (2.10734242554468e-08, 2.107342425544725e-08), (1.9999999999996833e-155, 2.000000000000329e-155)],
    ('quadratic', None): [(0.9999999999999998, 1.0000000000000002),
        (0.4999999999999999, 0.5000000000000001), (0.33333333333333326, 0.33333333333333337),
        (0.006666666666666666, 0.006666666666666668), (1.1102230246251563e-16, 1.1102230246251568e-16),
        (9.9999999999995e-311, 1.00000000000005e-310)],
    ('quadratic', 1e-09): [(0.9999999999999998, 1.0000000000000002),
        (0.4999999999999999, 0.5000000000000001), (0.33333333333333326, 0.33333333333333337),
        (0.006666666666666666, 0.006666666666666668), (1.1102230246251563e-16, 1.1102230246251568e-16),
        (9.9999999999995e-311, 1.00000000000005e-310)],
    ('step_log', None): [(1.5, 1.5), (0.5, 0.5), (0.25, 0.25), (0.0035858154296875, 0.0035858154296875),
        (5.5511151231257815e-17, 5.551115123125784e-17), (5.4829863599474e-311, 5.4829863599484e-311)],
    ('step_log', 1e-09): [(1.5, 1.5), (0.5, 0.5), (0.25, 0.25), (0.0035858154296875, 0.0035858154296875),
        (5.5511151231257815e-17, 5.551115123125784e-17), (5.4829863599474e-311, 5.4829863599484e-311)],
}


@pytest.mark.parametrize("family, target", sorted(TAILS, key=repr))
def test_boxed_tail_has_its_recorded_bits(family, target) -> None:
    impl = d._impl(TAIL_FAMILIES[family])
    for k, want in zip(TAIL_KS, TAILS[family, target]):
        try:
            got = impl.tail(k, target).pair
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            got = type(exc).__name__
        else:
            assert impl.tail_pair(k, target) == got, k
        assert got == want, k


def test_every_exported_name_resolves() -> None:
    for name in horizonlab.__all__:
        assert getattr(horizonlab, name) is not None, name


# -- capabilities: each family's flags say what its code does (discount._Base)

def test_every_family_has_a_mass_form() -> None:
    for cls in d._FAMILIES.values():
        assert cls.mass_form in ("tails", "blocks", "ratios"), cls.__name__


# alternating over quadratic sums its even weights until the target is met
# (over geometric:0.5 it stops at the rounding pads first, whatever the target)
CAPABILITY_EXAMPLES = {**EXAMPLES, "alternating_zero": d.alternating_zero()}


@pytest.mark.parametrize("family", sorted(CAPABILITY_EXAMPLES))
def test_target_free_exactly_when_tails_do_not_read_the_target(family) -> None:
    impl = d._impl(CAPABILITY_EXAMPLES[family].unscaled())
    reads = any(len({impl.tail_pair(k, t) for t in (None, 1e-3, 1e-12)}) > 1 for k in (1, 2, 150, 5000))
    assert impl.target_free is not reads
    assert reads is (family in ("alternating_zero", "cosine_modulated"))


# every binary-run reward takes the runs path: no family sends it to the dense kernel
RUNS_DISCOUNTS = {**EXAMPLES, "alternating_zero:quadratic": d.alternating_zero(),
                  "alternating_zero:power": d.alternating_zero(d.power(0.5)),
                  "alternating_zero:step_log": d.alternating_zero(d.step_log()),
                  "alternating_zero:cosine_modulated": d.alternating_zero(d.cosine_modulated())}


@pytest.mark.parametrize("family", sorted(RUNS_DISCOUNTS))
def test_binary_runs_never_sum_densely(monkeypatch, family) -> None:
    def refuse(*args):
        raise AssertionError("a binary-run reward reached the dense kernel")

    monkeypatch.setattr(v, "_dense_sum", refuse)
    # the last list ends past the guard, which a family that sums its terms
    # does not sum to: alternating over cosine cannot, and stops at the guard
    rewards = (r.linear_runs(), r.exponential_runs(), r.explicit_change_points([2, 5, 9, 30]),
               r.explicit_change_points([5, 10**6, 10**7, 10**30]))
    for rspec in rewards:
        for detail in v.disc_value_details(rspec, RUNS_DISCOUNTS[family], [1, 2, 150], 1e-3):
            if not isinstance(detail, d.UndefinedMetric):  # finite:3 past its support
                assert detail.path == "runs" and 0.0 <= detail.interval.lo <= detail.interval.hi <= 1.0


def test_alternating_limits_scan_ends_on_the_runs_path(monkeypatch, capsys) -> None:
    # its dense V points did not end within 200 s on the default schedule
    monkeypatch.setattr(v, "_dense_sum", lambda *args: pytest.fail("dense kernel"))
    assert cli.main(["limits", "--reward", "linear-runs", "--discount", "alternating"]) in (4, 5)
    assert "verdict:" in capsys.readouterr().out
