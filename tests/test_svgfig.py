"""Figure rendering: deterministic bytes, well-formed markup, regime shapes."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from boxlim import FIGURES, deform, render_figure
from boxlim.errors import MAX_FIGURE_P, TooLarge


def _root(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def test_figure_registry_is_complete():
    assert set(FIGURES) == {"hull", "ball", "line", "unit-square", "pcos"}


def test_unknown_figure_raises():
    with pytest.raises(KeyError):
        render_figure("histogram")


@pytest.mark.parametrize("name", ["hull", "line"])
def test_deformed_figures_cap_p(name):
    with pytest.raises(TooLarge):
        render_figure(name, x="3,1", y="1,-2", p=MAX_FIGURE_P + 1)


def test_renders_are_byte_identical():
    kwargs = {
        "hull": {"x": "3,1", "y": "1,-2", "p": 4},
        "ball": {"center": "3,2", "radius": "5/2"},
        "line": {"x": "3,1", "y": "1,-2", "p": 4},
        "unit-square": {"theta": "5/2"},
        "pcos": {},
    }
    for name, kw in kwargs.items():
        assert render_figure(name, **kw) == render_figure(name, **kw), name


@pytest.mark.parametrize(
    "name, p, digest",
    [
        ("hull", 6, "2678917dddeced8345c93421208489f0921238919ad11e8a696f8e208ac4a957"),
        ("hull", 256, "11f8f5bf607e0b880e6c41d0a51b47dbba911e40e7cbd7af921401f8d82458b8"),
        ("line", 6, "b94e4d229ec03e5d3cc82624fa64ac10b4cf4c2683121085c16e4127a6ad14d7"),
        ("line", 256, "9870466a9dc662d7f728f834469ef36b6e343c38708f9e9c6906f0c265921edd"),
    ],
)
def test_deformed_figure_bytes_are_pinned(name, p, digest):
    # a change to the deformed samplers that moves a drawn point shows here
    svg = render_figure(name, x="3,1", y="1,-2", p=p)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["hull", "line"])
def test_a_deformed_figure_reads_its_two_points_once(monkeypatch, name):
    # all 512 curve samples come from one call of the sampler, which scales
    # x and y to integers once
    calls = []
    scale = deform._common_rows
    monkeypatch.setattr(deform, "_common_rows", lambda *v: calls.append(v) or scale(*v))
    render_figure(name, x="3,1", y="1,-2", p=6)
    assert len(calls) == 1


def test_svg_structure_and_viewport():
    svg = render_figure("unit-square")
    root = _root(svg)
    assert root.tag.endswith("svg")
    assert root.get("width") == "800"
    assert root.get("height") == "800"
    assert root.get("viewBox") == "0 0 800 800"


def test_all_figures_are_well_formed_xml():
    _root(render_figure("hull", x="3,1", y="1,-2", p=2))
    _root(render_figure("ball", center="3,2", radius="1"))
    _root(render_figure("line", x="3,1", y="1,-2", p=2))
    _root(render_figure("unit-square", theta="13/4"))
    _root(render_figure("pcos", lo=-2, hi=2))


def test_ball_regimes_render_distinct_shapes():
    ns = {"svg": "http://www.w3.org/2000/svg"}

    def shapes(radius):
        svg = render_figure("ball", center="3,2", radius=radius)
        root = _root(svg)
        return {
            # every figure carries a background rect and a center marker rect
            "rect": len(root.findall(".//svg:rect", ns)) - 2,
            "circle": len(root.findall(".//svg:circle", ns)),
            "thick_line": svg.count('stroke-width="3.0"'),
            "filled_area": svg.count('fill-opacity'),
        }

    point = shapes("1")
    segment = shapes("5/2")
    square = shapes("4")
    # small radius pins both coordinates: a single dot, nothing else
    assert point == {"rect": 0, "circle": 1, "thick_line": 0, "filled_area": 0}
    # intermediate radius frees one coordinate: one thick segment
    assert segment == {"rect": 0, "circle": 0, "thick_line": 1, "filled_area": 0}
    # large radius frees both: one translucent filled square
    assert square == {"rect": 1, "circle": 0, "thick_line": 0, "filled_area": 1}


def test_curves_are_densely_sampled():
    svg = render_figure("pcos")
    # one polyline with the documented number of curve samples
    start = svg.index("<polyline")
    end = svg.index("/>", start)
    points = svg[start:end].split('points="')[1].split('"')[0]
    assert len(points.split()) == 512
