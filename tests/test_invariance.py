"""One invariance suite over ``engine.REGISTRY``.

Three tables state, once per family, how each key moves when an object's
channels are scaled by a power of two, when the object and its planes
are translated, and when they are turned by a quarter turn.  A table
entry is (the kind of every key not named, {key: kind}).  The properties
iterate the registry and the tables, and the completeness check fails
when a family has no entry or an entry names a key the family does not
produce.  README's "Measurement conventions" states the same contract
for users.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import assert_close, plane_of, region_of
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphoprof import ColocParams, GranularityParams, RadialParams, ShapeParams, TextureParams
from morphoprof.engine import REGISTRY
from synth import small_blob, smooth_plane

FAMILIES = {family.name: family for family in REGISTRY}
CHANNEL_FAMILIES = tuple(family.name for family in REGISTRY if family.arity)

#: Equal to the unchanged run's value, NaN where it is NaN.
SAME = "same"
#: Exactly x 2^e; a pair family's key moves by 2^(e_b - e_a).
SCALED = "scaled"
#: As SCALED, and missing where that lies past the float range.
SCALED_OR_MISSING = "scaled or missing"
#: Moves by the row (or column) shift.  The centroid in the bbox and the
#: bbox origin are added with one rounding, so this is exact while the
#: value stays between the same two powers of two; past one, the moved
#: value is a rounding of a real within the base value's rounding interval
#: plus the shift.
ROW_SHIFT, COL_SHIFT = "row shift", "column shift"
#: Turns by pi/2 * (k mod 2) after k quarter turns, on an elongated object.
TURNED = "turned"
#: No rule: its last bits may change.
FREE = "free"

SCALE = {
    "intensity": (SCALED, {"MassDisplacement": SAME,
                           "IntegratedIntensity": SCALED_OR_MISSING,
                           "IntegratedIntensityEdge": SCALED_OR_MISSING,
                           "MADIntensity": SCALED_OR_MISSING}),
    "texture": (SAME, {}),
    "granularity": (SAME, {}),
    "radial": (SAME, {}),
    "coloc": (SAME, {"Slope": SCALED_OR_MISSING}),
}

TRANSLATION = {
    "shape": (SAME, {"Centroid_Row": ROW_SHIFT, "Centroid_Col": COL_SHIFT}),
    "intensity": (SAME, {}),
    "texture": (SAME, {}),
    "granularity": (SAME, {}),
    "radial": (SAME, {}),
    "coloc": (SAME, {}),
}

#: Sums of the values in a turned order differ in their last bits, so only
#: geometry, texture's direction means and intensity's order statistics
#: are exact.  The inputs hold no -0.0.
ROTATION = {
    "shape": (SAME, {"Centroid_Row": FREE, "Centroid_Col": FREE, "Orientation": TURNED}),
    "intensity": (FREE, dict.fromkeys(("MinIntensity", "MaxIntensity", "MedianIntensity",
                                       "MADIntensity", "LowerQuartile", "UpperQuartile"), SAME)),
    "texture": (SAME, {}),
    "granularity": (FREE, {}),
    "radial": (FREE, {}),
    "coloc": (FREE, {}),
}

#: The params each property draws from, the configuration's defaults first.
PARAMS = {
    "shape": (ShapeParams(), ShapeParams(4)),
    "intensity": (None,),
    "texture": (TextureParams(), TextureParams(2, 16)),
    "granularity": (GranularityParams(), GranularityParams(6, 2)),
    "radial": (RadialParams(), RadialParams(6)),
    "coloc": (ColocParams(), ColocParams(0.0)),
}

#: Families that give every key a value below the float range: a NaN from
#: them is a defect.
ALWAYS_DEFINED = ("shape", "intensity", "granularity")


def kinds(table, name: str, params) -> dict[str, str]:
    """The kind ``table`` gives each key of family ``name`` with ``params``."""
    default, named = table[name]
    return {key: named.get(key, default) for key, *_ in FAMILIES[name].keys(params)}


def _measure(name, params, mask, planes) -> dict[str, float]:
    family = FAMILIES[name]
    features = family.measure(region_of(mask), tuple(map(plane_of, planes[: family.arity])), params)
    assert not any(map(math.isinf, features.values())), features
    return features


def _base(name, params, mask, planes) -> dict[str, float]:
    """The unchanged run, whose keys the others are compared with."""
    features = _measure(name, params, mask, planes)
    if name in ALWAYS_DEFINED:
        assert not any(map(math.isnan, features.values())), features
    return features


def _same(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


def check_scale(name, params, mask, planes, exponents) -> None:
    """Scaling channel i by 2^exponents[i] moves every key as SCALE says."""
    base = _base(name, params, mask, planes)
    got = _measure(name, params, mask, [np.ldexp(p, e) for p, e in zip(planes, exponents)])
    pair = FAMILIES[name].arity == 2
    e = exponents[1] - exponents[0] if pair else exponents[0]
    for key, kind in kinds(SCALE, name, params).items():
        if kind == SAME:
            assert _same(got[key], base[key]), key
            continue
        try:
            want = math.ldexp(base[key], e)
        except OverflowError:
            assert kind == SCALED_OR_MISSING, key
            want = math.nan
        # A pair's key is compared only in the normal range, where the two
        # exponents' restore rounds once.
        if not (pair and 0 < abs(want) < sys.float_info.min):
            assert got[key].hex() == want.hex(), key


def check_scale_close(name, params, mask, planes, factors, rel, abs_tol) -> None:
    """Scaling channel i by factors[i], not a power of two, moves every key
    as SCALE says, within ``rel`` and ``abs_tol``."""
    base = _base(name, params, mask, planes)
    got = _measure(name, params, mask, [k * p for k, p in zip(factors, planes)])
    for key, kind in kinds(SCALE, name, params).items():
        if kind == SAME:
            want = base[key]
        elif FAMILIES[name].arity == 2:
            want = base[key] * factors[1] / factors[0]
        else:
            want = factors[0] * base[key]
        assert_close(got[key], want, rel=rel, abs_tol=abs_tol, label=key)


def check_translation(name, params, mask, planes, shift) -> None:
    """Moving the object and its planes by ``shift`` (rows, columns), within
    the canvas, moves every key as TRANSLATION says."""
    base = _base(name, params, mask, planes)
    moved = _measure(name, params, *(np.roll(a, shift, axis=(-2, -1)) for a in (mask, planes)))
    for key, kind in kinds(TRANSLATION, name, params).items():
        if kind == SAME:
            assert _same(moved[key], base[key]), key
            continue
        step = shift[kind == COL_SHIFT]
        if math.frexp(moved[key])[1] == math.frexp(base[key])[1]:
            assert moved[key] == base[key] + step, key
        else:
            interval = Fraction(math.ulp(moved[key]) + math.ulp(base[key])) / 2
            assert abs(Fraction(moved[key]) - Fraction(base[key]) - step) <= interval, key


def check_rotation(name, params, mask, planes, turns) -> None:
    """Turning the object and its planes by ``turns`` quarter turns moves
    every key as ROTATION says; an exact key is also defined, on these
    non-degenerate inputs."""
    base = _base(name, params, mask, planes)
    rotated = _measure(name, params, *(np.rot90(a, turns, axes=(-2, -1)) for a in (mask, planes)))
    for key, kind in kinds(ROTATION, name, params).items():
        if kind == SAME:
            assert rotated[key] == base[key], f"{key} after {90 * turns} deg"
        elif kind == TURNED and base["MajorAxisLength"] > base["MinorAxisLength"] * 1.01:
            delta = abs(rotated[key] - base[key])
            assert min(delta, abs(delta - math.pi)) == pytest.approx(
                math.pi / 2 * (turns % 2), abs=1e-9
            ), key


def inputs(seed: int, smooth: bool, mixed: bool):
    """A blob and two planes on it: dyadic (multiples of 2^-10 in (-2, 2),
    so no scaled value leaves the normal range) on a 12 x 12 canvas, or
    smooth on a 32 x 32 one; mixed-sign or not."""
    rng = np.random.default_rng(seed)
    if not smooth:
        mask = small_blob(rng, size=12)
        low = -2047 if mixed else 0
        return mask, np.stack([rng.integers(low, 2048, size=mask.shape) / 1024 for _ in "ab"])
    mask = small_blob(rng)
    planes = np.stack([smooth_plane(*mask.shape, rng) for _ in "ab"])
    return mask, 2 * planes - 1 if mixed else planes


def test_tables_cover_the_registry_and_name_only_produced_keys():
    every = set(FAMILIES)
    assert set(SCALE) == set(CHANNEL_FAMILIES)
    assert set(TRANSLATION) == set(ROTATION) == set(PARAMS) == every
    for table in (SCALE, TRANSLATION, ROTATION):
        for name, (_, named) in table.items():
            for params in PARAMS[name]:
                assert set(named) <= set(kinds(table, name, params)), (name, params)


@st.composite
def _scales(draw):
    """Dyadic planes for e in [-1000, 1023], smooth ones for e in [-700, 1000]."""
    smooth = draw(st.booleans())
    exponent = st.integers(-700, 1000) if smooth else st.integers(-1000, 1023)
    return smooth, (draw(exponent), draw(exponent))


def _examples(test):
    # Seed 0 at the top of the float range, both sign kinds; smooth planes
    # of seed 1234 at 2^-700, 2^-300, 2^300 and 2^1000, a pair scaled alike.
    cases = [(name, 0, False, (1023, 1023), mixed)
             for name in CHANNEL_FAMILIES for mixed in (False, True)]
    cases += [(name, 1234, True, (e, e), False)
              for name in ("intensity", "radial", "coloc") for e in (-700, -300, 300, 1000)]
    for name, seed, smooth, exponents, mixed in cases:
        test = example(name=name, choice=0, seed=seed, scales=(smooth, exponents),
                       mixed=mixed)(test)
    return test


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(CHANNEL_FAMILIES), choice=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1), scales=_scales(), mixed=st.booleans())
@_examples
def test_power_of_two_scale(name, choice, seed, scales, mixed):
    smooth, exponents = scales
    params = PARAMS[name][choice % len(PARAMS[name])]
    check_scale(name, params, *inputs(seed, smooth, mixed), exponents)


@pytest.mark.parametrize(
    "name, k, rel, abs_tol",
    [("intensity", 0.5, 1e-12, 1e-12), ("intensity", 2.0, 1e-12, 1e-12),
     ("intensity", 3.7, 1e-12, 1e-12),
     ("granularity", 2.0, 0.0, 0.0), ("granularity", 1.7, 1e-9, 1e-9),
     ("radial", 2.0, 0.0, 0.0), ("radial", 1.9, 1e-9, 1e-12),
     ("coloc", 2.0, 1e-12, 1e-12), ("coloc", 3.7, 1e-12, 1e-12)],
)
def test_scale_by_any_factor(name, k, rel, abs_tol):
    # A fixed seed: a factor that is not a power of two rounds, and can merge
    # two values into one rank or quantization bin.
    check_scale_close(name, PARAMS[name][0], *inputs(1234, True, False), (k, 1.0), rel, abs_tol)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(tuple(FAMILIES)), choice=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1), mixed=st.booleans(),
       offset=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       shift=st.tuples(st.integers(0, 20), st.integers(0, 20)))
@example(name="intensity", choice=0, seed=1234, mixed=False, offset=(5, 5), shift=(9, 13))
@example(name="radial", choice=0, seed=1234, mixed=False, offset=(4, 6), shift=(11, 3))
@example(name="shape", choice=0, seed=1234, mixed=False, offset=(2, 3), shift=(7, 11))
@example(name="shape", choice=0, seed=31, mixed=False, offset=(0, 0), shift=(0, 5))
def test_translation(name, choice, seed, mixed, offset, shift):
    mask, planes = inputs(seed, True, mixed)
    # Room for the largest offset and shift, so nothing wraps around.
    (h, w), (r, c) = mask.shape, offset
    canvas_mask, canvas = np.zeros((h + 26, w + 26), dtype=bool), np.zeros((2, h + 26, w + 26))
    canvas_mask[r : r + h, c : c + w], canvas[:, r : r + h, c : c + w] = mask, planes
    params = PARAMS[name][choice % len(PARAMS[name])]
    check_translation(name, params, canvas_mask, canvas, shift)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(tuple(FAMILIES)), choice=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
def test_quarter_rotation(name, choice, seed, mixed):
    mask, planes = inputs(seed, True, mixed)
    params = PARAMS[name][choice % len(PARAMS[name])]
    for turns in (1, 2, 3):
        check_rotation(name, params, mask, planes, turns)
