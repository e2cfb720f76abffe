import math
import xml.etree.ElementTree as ET

from conftest import star_of
from doubleline.dl import DoubleLineParams, construct_dl
from doubleline.pattern import CreasePattern
from doubleline.patterns import gen_miura
from doubleline.svg import save_svg

NS = "{http://www.w3.org/2000/svg}"


def _paths_by_class(data: bytes):
    root = ET.fromstring(data)
    out = {}
    for el in root.iter(NS + "path"):
        out.setdefault(el.get("class"), []).append(el)
    return out


def test_one_element_per_crease():
    star = star_of([math.radians(v) for v in (60, 80, 120, 100)])
    doubled = construct_dl(star, DoubleLineParams(math.pi / 2, (1.0,) * 4))
    by_class = _paths_by_class(save_svg(doubled))
    total = sum(len(v) for v in by_class.values())
    assert total == len(doubled.creases)
    # 4 polygon sides + 8 doubled rays are interior, the rest is boundary
    assert len(by_class["B"]) == sum(1 for c in doubled.creases if c.assignment == "B")
    assert total - len(by_class["B"]) == 12


def test_mountain_valley_classes():
    pattern = gen_miura(3, 3, math.radians(60)).pattern
    by_class = _paths_by_class(save_svg(pattern))
    assert len(by_class["M"]) == sum(1 for c in pattern.creases if c.assignment == "M")
    assert len(by_class["V"]) == sum(1 for c in pattern.creases if c.assignment == "V")


def test_empty_pattern():
    data = save_svg(CreasePattern.build([], []))
    root = ET.fromstring(data)
    assert root.tag == NS + "svg"
    assert len(list(root.iter(NS + "path"))) == 0


def test_deterministic():
    pattern = gen_miura(2, 3, math.radians(55)).pattern
    assert save_svg(pattern) == save_svg(pattern)
