import math
import warnings

import corpus


def test_every_command_line_prints_what_the_corpus_holds():
    moved = corpus.moved()
    for entry, ulps in moved:
        if ulps > corpus.MAX_ULPS and not corpus.regression(entry, ulps):
            warnings.warn(f"numpy {entry['numpy']} recorded, stream may differ: {' '.join(entry['argv'])}")
    assert [(" ".join(e["argv"]), ulps) for e, ulps in moved if corpus.regression(e, ulps)] == []


def test_distance_counts_ulps_and_flags_any_other_change():
    entry = {"exit": 0, "stdout": "0.1,x,-0.0\n"}
    assert corpus.distance(entry, {"exit": 0, "stdout": f"{math.nextafter(0.1, 1)},x,-0.0\n"}) == 1
    assert corpus.distance(entry, {"exit": 0, "stdout": "0.1,x,0.0\n"}) == 1
    assert corpus.distance(entry, {"exit": 0, "stdout": "0.1,x,-5e-324\n"}) == 1
    assert corpus.distance(entry, {"exit": 0, "stdout": "0.1,y,-0.0\n"}) == math.inf
    assert corpus.distance(entry, {"exit": 1, "stdout": "0.1,x,-0.0\n"}) == math.inf
