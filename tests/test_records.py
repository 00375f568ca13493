"""The value classes: construction, repr, equality, hashing, immutability."""

import inspect
import math
import traceback

import pytest

from ccplane.cevians import (
    CevianFrame,
    LambertReport,
    PqrSystem,
    Triangle,
    equilateral_triangle,
)
from ccplane.construct import ConstructionResult, RatioSumInput
from ccplane.errors import DegenerateInputError, InvalidPointError
from ccplane.kernel import (
    DiskPoint,
    Geometry,
    HPoint,
    Record,
    SpherePoint,
)
from ccplane.lexell import AreaLocus, BaseConfig, Hypercycle, LocusResiduals
from ccplane.render import (
    RenderScene,
    SceneArc,
    SceneChord,
    ScenePoint,
    ScenePolyline,
    SceneTriangle,
)
from ccplane.trig import RightTriangleConfig
from ccplane.verify import VerifyReport

EUC = Geometry.EUCLIDEAN
TRI = Triangle(EUC, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
FRAME = CevianFrame(
    TRI, (0.25, 0.25), (0.5, 0.5), (0.0, 0.5), (0.5, 0.0),
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.25, 0.5, 0.75, 1.0, 1.0, math.pi - 2.0,
)
AXIS = (0.0, 0.0, 1.0)
BASE = BaseConfig.from_half_distance(0.5)
POINT = ScenePoint(0.25, 0.5, "A")

# Every value class, with its fields in order and one valid value each.
SAMPLES = {
    HPoint: {"v": (1.0, 0.0, 0.0)},
    SpherePoint: {"v": (0.0, 0.0, 1.0)},
    DiskPoint: {"u": 0.25, "w": -0.5},
    Triangle: {"geometry": EUC, "a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)},
    CevianFrame: {
        "tri": TRI, "o": (0.25, 0.25), "d": (0.5, 0.5), "e": (0.0, 0.5),
        "f": (0.5, 0.0), "ao": 1.0, "bo": 2.0, "co": 3.0, "od": 4.0, "oe": 5.0,
        "of": 6.0, "alpha": 0.25, "beta": 0.5, "gamma": 0.75, "p": 1.0,
        "q": 1.0, "r": math.pi - 2.0,
    },
    PqrSystem: {"P": 1.0, "Q": 2.0, "R": 3.0, "residuals": (0.0, 0.5, 1.0)},
    RatioSumInput: {"ao": 0.5, "bo": 0.75, "co": 1.0, "od": 0.25, "oe": 0.125, "of": 2.0},
    ConstructionResult: {
        "frame": FRAME, "aux_a": 0.5,
        "aux_b": 0.75, "aux_c": 1.0, "aux_area": 0.125, "sine_factor": 2.0,
        "angle_bof": 1.0, "angle_aof": 1.5, "angle_bod": 0.5,
        "relation_residual": 0.0, "containment_residual": 1e-17,
    },
    LambertReport: {
        "geometry": Geometry.HYPERBOLIC, "side": 1.0, "alpha": 2.0,
        "ad_over_od": 3.0, "median_residual": 0.0,
    },
    Hypercycle: {"axis": AXIS, "offset": 0.5},
    BaseConfig: {"a": BASE.a, "b": BASE.b, "half_distance": 0.5},
    AreaLocus: {
        "base": BASE, "carrier": Hypercycle(AXIS, 0.5),
        "mirror": Hypercycle(AXIS, -0.5), "area": 0.75,
    },
    LocusResiduals: {
        "area_spread": 0.0, "mirror_residual": 1e-16,
        "midline_residual": 2e-16, "subarc_residual": 0.5,
    },
    ScenePoint: {"x": 0.25, "y": 0.5, "label": "A", "style": "apex"},
    SceneArc: {
        "x1": 0.0, "y1": 1.0, "x2": 1.0, "y2": 0.0, "cx": 1.0, "cy": 1.0,
        "r": 1.0, "style": "axis",
    },
    SceneChord: {"x1": -1.0, "y1": 0.0, "x2": 1.0, "y2": 0.0, "style": "base"},
    ScenePolyline: {"points": ((0.0, 0.0), (0.5, 0.25)), "style": "mirror"},
    SceneTriangle: {"vertices": ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)), "style": "shade"},
    RenderScene: {
        "points": (POINT,), "arcs": (), "chords": (), "polylines": (), "triangles": (),
    },
    RightTriangleConfig: {
        "geometry": EUC, "alpha": math.acos(0.6), "hypotenuse": 1.0,
        "adjacent": 0.6, "opposite": 0.8,
    },
    VerifyReport: {
        "theorem": "ceva", "geometry": Geometry.SPHERICAL, "trials": 100,
        "seed": 7, "tolerance": 1e-9, "max_residual": 3e-15, "passed": True,
    },
}

_TRI_REPR = (
    "Triangle(geometry=<Geometry.EUCLIDEAN: 'euclidean'>, a=(0.0, 0.0), "
    "b=(1.0, 0.0), c=(0.0, 1.0))"
)
_BASE_REPR = (
    "BaseConfig(a=HPoint(v=(1.1276259652063807, 0.5210953054937474, 0.0)), "
    "b=HPoint(v=(1.1276259652063807, -0.5210953054937474, 0.0)), half_distance=0.5)"
)

# The repr each class had as a generated frozen class, field order included.
EXPECTED_REPR = {
    HPoint: "HPoint(v=(1.0, 0.0, 0.0))",
    SpherePoint: "SpherePoint(v=(0.0, 0.0, 1.0))",
    DiskPoint: "DiskPoint(u=0.25, w=-0.5)",
    Triangle: _TRI_REPR,
    CevianFrame: (
        f"CevianFrame(tri={_TRI_REPR}, o=(0.25, 0.25), d=(0.5, 0.5), e=(0.0, 0.5), "
        "f=(0.5, 0.0), ao=1.0, bo=2.0, co=3.0, od=4.0, oe=5.0, of=6.0, alpha=0.25, "
        "beta=0.5, gamma=0.75, p=1.0, q=1.0, r=1.1415926535897931)"
    ),
    PqrSystem: "PqrSystem(P=1.0, Q=2.0, R=3.0, residuals=(0.0, 0.5, 1.0))",
    RatioSumInput: "RatioSumInput(ao=0.5, bo=0.75, co=1.0, od=0.25, oe=0.125, of=2.0)",
    ConstructionResult: (
        f"ConstructionResult(frame=CevianFrame(tri={_TRI_REPR}, o=(0.25, 0.25), "
        "d=(0.5, 0.5), e=(0.0, 0.5), f=(0.5, 0.0), ao=1.0, bo=2.0, co=3.0, od=4.0, oe=5.0, of=6.0, "
        "alpha=0.25, beta=0.5, gamma=0.75, p=1.0, q=1.0, r=1.1415926535897931), "
        "aux_a=0.5, aux_b=0.75, aux_c=1.0, aux_area=0.125, sine_factor=2.0, "
        "angle_bof=1.0, angle_aof=1.5, angle_bod=0.5, relation_residual=0.0, "
        "containment_residual=1e-17)"
    ),
    LambertReport: (
        "LambertReport(geometry=<Geometry.HYPERBOLIC: 'hyperbolic'>, side=1.0, "
        "alpha=2.0, ad_over_od=3.0, median_residual=0.0)"
    ),
    Hypercycle: "Hypercycle(axis=(0.0, 0.0, 1.0), offset=0.5)",
    BaseConfig: _BASE_REPR,
    AreaLocus: (
        f"AreaLocus(base={_BASE_REPR}, "
        "carrier=Hypercycle(axis=(0.0, 0.0, 1.0), offset=0.5), "
        "mirror=Hypercycle(axis=(0.0, 0.0, 1.0), offset=-0.5), "
        "area=0.75)"
    ),
    LocusResiduals: (
        "LocusResiduals(area_spread=0.0, mirror_residual=1e-16, "
        "midline_residual=2e-16, subarc_residual=0.5)"
    ),
    ScenePoint: "ScenePoint(x=0.25, y=0.5, label='A', style='apex')",
    SceneArc: (
        "SceneArc(x1=0.0, y1=1.0, x2=1.0, y2=0.0, cx=1.0, cy=1.0, r=1.0, style='axis')"
    ),
    SceneChord: "SceneChord(x1=-1.0, y1=0.0, x2=1.0, y2=0.0, style='base')",
    ScenePolyline: "ScenePolyline(points=((0.0, 0.0), (0.5, 0.25)), style='mirror')",
    SceneTriangle: (
        "SceneTriangle(vertices=((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)), style='shade')"
    ),
    RenderScene: (
        "RenderScene(points=(ScenePoint(x=0.25, y=0.5, label='A', style='point'),), "
        "arcs=(), chords=(), polylines=(), triangles=())"
    ),
    RightTriangleConfig: (
        "RightTriangleConfig(geometry=<Geometry.EUCLIDEAN: 'euclidean'>, "
        "alpha=0.9272952180016123, hypotenuse=1.0, adjacent=0.6, opposite=0.8)"
    ),
    VerifyReport: (
        "VerifyReport(theorem='ceva', geometry=<Geometry.SPHERICAL: 'spherical'>, "
        "trials=100, seed=7, tolerance=1e-09, max_residual=3e-15, passed=True)"
    ),
}

# The scene classes with defaults: the arguments without one, and the defaults.
DEFAULTS = {
    ScenePoint: ({"x": 0.25, "y": 0.5, "label": "A"}, {"style": "point"}),
    SceneArc: (
        {"x1": 0.0, "y1": 1.0, "x2": 1.0, "y2": 0.0, "cx": 1.0, "cy": 1.0, "r": 1.0},
        {"style": "side"},
    ),
    SceneChord: ({"x1": -1.0, "y1": 0.0, "x2": 1.0, "y2": 0.0}, {"style": "side"}),
    ScenePolyline: ({"points": ((0.0, 0.0), (0.5, 0.25))}, {"style": "carrier"}),
    SceneTriangle: (
        {"vertices": ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))}, {"style": "fill"},
    ),
    RenderScene: (
        {},
        {"points": (), "arcs": (), "chords": (), "polylines": (), "triangles": ()},
    ),
}

CLASSES = list(SAMPLES)


def _ids(cls):
    return cls.__name__


def test_every_value_class_is_sampled():
    # The samples cover every Record class of the package and no other.
    assert len(CLASSES) == 21
    assert set(CLASSES) == set(Record.__subclasses__())
    assert set(EXPECTED_REPR) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_positional_and_keyword_construction(cls):
    fields = SAMPLES[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for obj in (by_position, by_keyword):
        assert [getattr(obj, name) for name in fields] == list(fields.values())
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    defaults = DEFAULTS.get(cls, ({}, {}))[1]
    required = [name for name in fields if name not in defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{n: v for n, v in fields.items() if n != required[0]})


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_signature_lists_fields_and_defaults(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields == tuple(SAMPLES[cls])
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    given = {n: p.default for n, p in params.items() if p.default is not p.empty}
    assert given == DEFAULTS.get(cls, ({}, {}))[1]


def test_constructor_frame_names_its_class():
    with pytest.raises(InvalidPointError) as info:
        HPoint((2.0, 0.0, 0.0))
    frames = traceback.extract_tb(info.value.__traceback__)
    names = [(f.filename, f.name) for f in frames]
    i = names.index(("<ccplane.kernel.HPoint.__init__>", "__init__"))
    assert names[i + 1][1] == "__post_init__"


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=_ids)
def test_defaults(cls):
    given, defaults = DEFAULTS[cls]
    obj = cls(**given)
    for name, value in defaults.items():
        assert getattr(obj, name) == value
    assert obj == cls(**given, **defaults)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_repr_lists_fields_in_order(cls):
    assert repr(cls(**SAMPLES[cls])) == EXPECTED_REPR[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_eq_and_hash_compare_fields(cls):
    fields = SAMPLES[cls]
    a, b = cls(**fields), cls(**fields)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert a.__eq__(object()) is NotImplemented
    assert a != object()


def test_eq_tells_fields_and_classes_apart():
    assert DiskPoint(0.25, -0.5) != DiskPoint(0.25, -0.25)
    assert ScenePoint(0.0, 0.0, "A") != ScenePoint(0.0, 0.0, "A", "apex")
    assert Triangle(EUC, (0.0, 0.0), (1.0, 0.0), (0.0, 2.0)) != TRI
    # Same field values, different class.
    assert HPoint((1.0, 0.0, 0.0)) != SpherePoint((1.0, 0.0, 0.0))
    assert len({HPoint((1.0, 0.0, 0.0)), SpherePoint((1.0, 0.0, 0.0))}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields = SAMPLES[cls]
    obj = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1.0
    assert [getattr(obj, name) for name in fields] == list(fields.values())


def test_private_slots_are_not_fields():
    tri = Triangle(**SAMPLES[Triangle])
    assert tri.side_lengths() == (math.sqrt(2.0), 1.0, 1.0)
    assert "_sides" not in repr(tri)
    hc = Hypercycle(AXIS, 0.5)
    frame = hc._axis_frame
    assert hc._axis_frame is frame
    assert hc == Hypercycle(AXIS, 0.5)
    assert hash(hc) == hash((AXIS, 0.5))
    assert repr(hc) == EXPECTED_REPR[Hypercycle]


def test_patched_post_init_sees_each_triangle_once(monkeypatch):
    # A profiler counts triangle attempts by replacing the hook on the class.
    seen = []
    original = Triangle.__post_init__

    def counting(tri):
        seen.append(tri)
        return original(tri)

    monkeypatch.setattr(Triangle, "__post_init__", counting)
    built = [Triangle(EUC, (0.0, 0.0), (1.0, 0.0), (0.0, float(i))) for i in (1, 2)]
    built.append(equilateral_triangle(1.0, Geometry.HYPERBOLIC))
    with pytest.raises(DegenerateInputError):
        Triangle(EUC, (0.0, 0.0), (0.0, 0.0), (0.0, 1.0))
    assert [id(t) for t in seen[:3]] == [id(t) for t in built]
    assert len(seen) == 4
