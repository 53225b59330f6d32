"""Box-map classification and rendering of the bundle files (CSV tables,
GeoJSON, SVG).

Box maps split a variable into its four quartile bins plus hinge-rule
outliers (fences at Q1 - h*IQR and Q3 + h*IQR, default h = 1.5). This
module names every file of the bundle, but the emitters only render: each
returns {file name: contents} and opens nothing (the CLI writes the
bundle). All of them are deterministic: identical inputs produce
byte-identical contents.

All nine CSV tables go through one writer: comma-delimited, "\n" line
endings, a cell quoted only when it holds a comma, a quote or a line break,
and numbers with 6 decimal places except the integer AV_INT. The box-map
files take the run's row-aligned arrays: row i of the scores and entry i
of each class column belong to the i-th retained tract.
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError
from .geometry import Tracts
from .ingest import VariableTable, VARIABLE_COLUMNS
from .stats import ContributorThresholds, MoranResult, PcaResult, classify_contributors

# Ordered box-map classes, lowest to highest.
BOX_CLASSES = ("lower_outlier", "q1", "q2", "q3", "q4", "upper_outlier")

# Diverging 6-color palette keyed by class (blue = low, red = high).
BOX_PALETTE = {
    "lower_outlier": "#2166ac",
    "q1": "#67a9cf",
    "q2": "#d1e5f0",
    "q3": "#fddbc7",
    "q4": "#ef8a62",
    "upper_outlier": "#b2182b",
}

# The box map of the k-th principal component; how many there are depends
# on the config, so a run that maps fewer removes the surplus ones.
BOXMAP_SVG_NAME = "boxmap_pc{}.svg"
BOXMAP_SVG = re.compile(r"boxmap_pc\d+\.svg")

# Size of a box-map SVG, in pixels.
SVG_WIDTH = 640
SVG_HEIGHT = 560

CLASS_LABELS = {
    "lower_outlier": "lower outlier",
    "q1": "< 25%",
    "q2": "25% - 50%",
    "q3": "50% - 75%",
    "q4": "> 75%",
    "upper_outlier": "upper outlier",
}


def _xml_escape(text: str) -> str:
    # xml.sax.saxutils.escape, whose import pulls in urllib, http and email
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _interpolated_quantile(sorted_values: np.ndarray, p: float) -> float:
    """Linear interpolation at position p * (n - 1) on the sorted sample."""
    pos = p * (len(sorted_values) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


def boxmap_classify(values: np.ndarray, hinge: float = 1.5) -> list[str]:
    """Assign each value a box-map class.

    Outliers fall strictly beyond the hinge fences; everything else is
    binned right-closed at the quartiles (v <= Q1 -> q1, <= Q2 -> q2,
    <= Q3 -> q3, else q4), so boundary values classify deterministically.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 5:
        raise DomainError(f"box map needs at least 5 values, got {x.size}")
    if not (hinge > 0):
        raise DomainError(f"hinge must be > 0, got {hinge}")
    s = np.sort(x)
    q1 = _interpolated_quantile(s, 0.25)
    q2 = _interpolated_quantile(s, 0.50)
    q3 = _interpolated_quantile(s, 0.75)
    iqr = q3 - q1
    lower_fence = q1 - hinge * iqr
    upper_fence = q3 + hinge * iqr
    conditions = [x < lower_fence, x > upper_fence, x <= q1, x <= q2, x <= q3]
    classes = ["lower_outlier", "upper_outlier", "q1", "q2", "q3"]
    return np.select(conditions, classes, "q4").tolist()


class _Records(list):
    """A file for csv.writer that keeps each row it writes as one string."""

    write = list.append


def _csv(header: list[str], rows: Iterable[Iterable[object]]) -> str:
    """Render one table: comma-separated, "\n" line endings, a cell quoted
    only when it needs it (csv's minimal quoting). A float cell carries 6
    decimal places; an int or str cell is written as it is."""
    records = _Records()
    # csv quotes a cell that holds a character of the line terminator; with
    # "\n" alone, Python before 3.13 leaves a lone "\r" bare, which splits the
    # row when it is read back. Each row is written with one call.
    writer = csv.writer(records, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(f"{v:.6f}" if isinstance(v, float) else v for v in row)
    return "".join(record[:-2] + "\n" for record in records)


def _labelled(labels: list[str], matrix: np.ndarray) -> Iterator[list[object]]:
    """The rows of matrix, as Python floats, each led by its label."""
    return ([label, *row] for label, row in zip(labels, matrix.tolist()))


def emit_variables_csv(table: VariableTable) -> dict[str, str]:
    """Render variables.csv (the n x 10 matrix) and dropped.csv (the audit)."""
    # AV_INT is a count; the rest are Python floats, which format faster than numpy's
    rows = (
        [tid, int(row[0]), *row[1:]] for tid, row in zip(table.tract_ids, table.values.tolist())
    )
    return {
        "variables.csv": _csv(["tract_id", *VARIABLE_COLUMNS], rows),
        "dropped.csv": _csv(["tract_id", "reason"], table.dropped),
    }


def emit_moran_csv(moran: list[tuple[str, MoranResult]]) -> dict[str, str]:
    header = ["variable", "moran_i", "expected", "pseudo_p", "permutations", "seed"]
    rows = (
        [name, res.I, res.expected, res.pseudo_p, res.permutations, res.seed]
        for name, res in moran
    )
    return {"moran.csv": _csv(header, rows)}


def emit_pca_tables(
    table: VariableTable,
    pca: PcaResult,
    loading_corr: np.ndarray,
    thresholds: ContributorThresholds,
    names: tuple[str, ...] = VARIABLE_COLUMNS,
) -> dict[str, str]:
    """Render the six PCA-side report CSVs.
    var_corr.csv is the correlation matrix the PCA decomposed."""
    names = list(names)
    pcs = [f"PC{k + 1}" for k in range(pca.n_components)]
    contributors = []
    for k, pc in enumerate(pcs):
        column = [(name, pca.loadings[i, k]) for i, name in enumerate(names)]
        significant, secondary = classify_contributors(column, thresholds)
        sig = "|".join(n for n in names if n in significant)
        sec = "|".join(n for n in names if n in secondary)
        contributors.append([pc, sig, sec])
    variance = zip(pcs, pca.eigenvalues, pca.proportions, accumulate(pca.proportions))
    return {
        "variance.csv": _csv(["component", "eigenvalue", "proportion", "cumulative"], variance),
        "loadings.csv": _csv(["variable", *pcs], _labelled(names, pca.loadings)),
        "contributors.csv": _csv(["component", "significant", "secondary"], contributors),
        "var_corr.csv": _csv(["variable", *names], _labelled(names, pca.correlation)),
        "loading_corr.csv": _csv(["variable", *names], _labelled(names, loading_corr)),
        "scores.csv": _csv(["tract_id", *pcs], _labelled(table.tract_ids, pca.scores)),
    }


def _json_floats(values: list[float]) -> list[str]:
    """Floats as json writes them: each its repr, or NaN, Infinity or
    -Infinity."""
    if all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    return [json.dumps(v) for v in values]


# The opening, item separator and closing of a non-empty list at depth d,
# as json.JSONEncoder(indent=2) lays it out: the items on lines indented by
# d + 1 steps of two spaces, the closing on a line indented by d steps. In
# scores.geojson a geometry's coordinates are a list at depth 4 (document,
# features, feature, geometry), its positions at depth 6 in a Polygon and
# 7 in a MultiPolygon.
_LAYOUT = [
    ("[\n" + "  " * (d + 1), ",\n" + "  " * (d + 1), "\n" + "  " * d + "]") for d in range(8)
]
_POSITION = ("{!r}".join(_LAYOUT[6]), "{!r}".join(_LAYOUT[7]))
_GEOMETRY_TYPE = ('"Polygon"', '"MultiPolygon"')


def _nest(items: list[str], depth: int) -> str:
    open_, sep, close = _LAYOUT[depth]
    return open_ + sep.join(items) + close


def emit_geojson(
    tracts: Tracts,
    table: VariableTable,
    scores: np.ndarray,
    classes: list[list[str]],
) -> dict[str, Iterator[str]]:
    """Render scores.geojson: a FeatureCollection echoing the input geometry
    of every tract, in tract_id order, with score/class properties
    (pcK_score, pcK_class) for the len(classes) mapped components. Row i of
    scores and entry i of each class column belong to the tract
    table.index[i]. Dropped tracts keep their geometry, carry null scores,
    and record their dropped_reason from table.dropped.

    The bytes are those of json.JSONEncoder(indent=2) over the document
    built as dicts, then "\n". A plain geometry (see `Tracts`) is drawn
    from the tracts' arrays, each number as float.__repr__ writes it; any
    other goes through json.dumps(indent=2), indented to its depth. The
    properties are rendered here; the document comes back as a lazy stream
    of one text chunk per feature, so it is never held as one string."""
    row_of = dict(zip(table.index.tolist(), range(table.n)))
    dropped = dict(table.dropped)
    k = len(classes)
    keys = [f',\n        "pc{c + 1}_score": ' for c in range(k)]
    keys += [f',\n        "pc{c + 1}_class": ' for c in range(k)]
    nulls = "".join(key + "null" for key in keys)
    texts = _json_floats([round(v, 6) for v in scores[:, :k].ravel().tolist()])
    values = [  # of each row, in the order of keys
        texts[i * k : i * k + k] + [encode_basestring_ascii(column[i]) for column in classes]
        for i in range(table.n)
    ]
    features = []  # (tract, the text of its properties after "tract_id": )
    for tract_id, t in sorted(zip(tracts.ids, range(len(tracts.ids)))):
        i = row_of.get(t)
        if i is None:
            reason = encode_basestring_ascii(dropped[tract_id])
            tail = nulls + ',\n        "dropped_reason": ' + reason
        else:
            tail = "".join(map(str.__add__, keys, values[i]))
        features.append((t, encode_basestring_ascii(tract_id) + tail))
    return {"scores.geojson": _geojson_chunks(tracts, features)}


def _geojson_chunks(tracts: Tracts, features: list[tuple[int, str]]) -> Iterator[str]:
    """The text of scores.geojson, one chunk per feature."""
    if not features:
        yield '{\n  "type": "FeatureCollection",\n  "features": []\n}\n'
        return
    part_start, part_ring = tracts.part_start.tolist(), tracts.part_ring.tolist()
    ring_pos, multi = tracts.ring_pos.tolist(), tracts.multi.tolist()
    head = '{\n  "type": "FeatureCollection",\n  "features": [\n    '
    for t, props in features:
        geometry = tracts.verbatim[t]
        if geometry is not None:  # json escapes every line break inside a string
            geometry = json.dumps(geometry, indent=2).replace("\n", "\n      ")
        else:  # drawn from the arrays
            m = multi[t]
            rings = part_ring[part_start[t] : part_start[t + 1] + 1]
            pos = ring_pos[rings[0] : rings[-1] + 1]
            lo, hi = pos[0], pos[-1]
            lon, lat = tracts.lon[lo:hi].tolist(), tracts.lat[lo:hi].tolist()
            positions = list(map(_POSITION[m].format, lon, lat))
            coords = [_nest(positions[a - lo : b - lo], 5 + m) for a, b in zip(pos, pos[1:])]
            if m:  # the rings of each part
                r0 = rings[0]
                coords = [_nest(coords[a - r0 : b - r0], 5) for a, b in zip(rings, rings[1:])]
            geometry = (
                '{\n        "type": ' + _GEOMETRY_TYPE[m] + ',\n        "coordinates": '
                + _nest(coords, 4) + "\n      }"
            )
        yield (
            head + '{\n      "type": "Feature",\n      "properties": {\n        "tract_id": '
            + props + '\n      },\n      "geometry": ' + geometry + "\n    }"
        )
        head = ",\n    "
    yield "\n  ]\n}\n"


def emit_svg_choropleth(
    tracts: Tracts, index: np.ndarray, class_columns: list[list[str]]
) -> dict[str, str]:
    """Render one box-map choropleth per class column as SVG:
    boxmap_pc<k>.svg maps class_columns[k - 1], whose entry i is the class
    of the tract index[i].

    One path per tract (holes via even-odd fill), in the order given, filled
    from the fixed 6-color palette, plus a 6-swatch legend. The bounds, the
    scale, every tract's path and the legend are drawn once and shared, so
    the maps differ only in their title and fills. Output is deterministic.
    """
    bounds = tracts.bounds[index]
    xmin, ymin = bounds[:, :2].min(axis=0).tolist()
    xmax, ymax = bounds[:, 2:].max(axis=0).tolist()
    pad = 10.0
    legend_w = 150.0
    map_w = SVG_WIDTH - legend_w - 2 * pad
    map_h = SVG_HEIGHT - 2 * pad
    span_x = xmax - xmin or 1.0
    span_y = ymax - ymin or 1.0
    scale = min(map_w / span_x, map_h / span_y)
    # every vertex in SVG coordinates: the segment starts, each ring's vertices
    sx = pad + (tracts.ax - xmin) * scale
    sy = pad + (ymax - tracts.ay) * scale
    ring_seg = tracts.ring_seg.tolist()
    rings = tracts.part_ring[tracts.part_start].tolist()  # tract t's: rings[t]:rings[t + 1]
    paths = [
        " ".join(
            "M "
            + " L ".join(map("{:.2f},{:.2f}".format, sx[lo:hi].tolist(), sy[lo:hi].tolist()))
            + " Z"
            for lo, hi in zip(ring_seg[rings[t] : rings[t + 1]], ring_seg[rings[t] + 1 :])
        )
        for t in index.tolist()
    ]
    lx = SVG_WIDTH - legend_w
    legend = []
    for i, cls in enumerate(BOX_CLASSES):
        ly = pad + i * 24
        legend.append(
            f'<rect class="legend-swatch" x="{lx:.0f}" y="{ly:.0f}" width="18" height="18" '
            f'fill="{BOX_PALETTE[cls]}" stroke="#333333"/>'
        )
        legend.append(
            f'<text x="{lx + 24:.0f}" y="{ly + 14:.0f}" font-size="12" '
            f'font-family="sans-serif">{_xml_escape(CLASS_LABELS[cls])}</text>'
        )
    files = {}
    for c, classes in enumerate(class_columns):
        files[BOXMAP_SVG_NAME.format(c + 1)] = "\n".join(
            [
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
                f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
                f'<text x="{pad:.0f}" y="{SVG_HEIGHT - 2:.0f}" font-size="12" '
                f'font-family="sans-serif">PC{c + 1} box map (hinge classes)</text>',
                '<g stroke="#333333" stroke-width="1" fill-rule="evenodd">',
                *(
                    f'<path d="{d}" fill="{BOX_PALETTE[cls]}"/>'
                    for d, cls in zip(paths, classes, strict=True)
                ),
                "</g>",
                *legend,
                "</svg>\n",
            ]
        )
    return files
