"""Box-map classification and rendering of the bundle files (CSV tables,
GeoJSON, SVG).

Box maps split a variable into its four quartile bins plus hinge-rule
outliers (fences at Q1 - h*IQR and Q3 + h*IQR, default h = 1.5). The
emitters only render: each returns the contents of its files and opens
none (the CLI writes the bundle). All of them are deterministic: identical
inputs produce byte-identical contents.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterator
from xml.sax.saxutils import escape

import numpy as np

from .errors import DomainError
from .geometry import parts_bounds
from .ingest import TractGeometry, VariableTable, VARIABLE_COLUMNS
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

CLASS_LABELS = {
    "lower_outlier": "lower outlier",
    "q1": "< 25%",
    "q2": "25% - 50%",
    "q3": "50% - 75%",
    "q4": "> 75%",
    "upper_outlier": "upper outlier",
}


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
    classes = []
    for v in x:
        if v < lower_fence:
            classes.append("lower_outlier")
        elif v > upper_fence:
            classes.append("upper_outlier")
        elif v <= q1:
            classes.append("q1")
        elif v <= q2:
            classes.append("q2")
        elif v <= q3:
            classes.append("q3")
        else:
            classes.append("q4")
    return classes


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _matrix_csv(names, matrix) -> str:
    lines = ["variable," + ",".join(names)]
    for name, row in zip(names, matrix):
        lines.append(name + "," + ",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_variables_csv(table: VariableTable) -> dict[str, str]:
    """Render variables.csv (the n x 10 matrix) and dropped.csv (the audit)."""
    lines = ["tract_id," + ",".join(VARIABLE_COLUMNS)]
    for tract_id, row in zip(table.tract_ids, table.values):
        cells = [tract_id, str(int(row[0]))]  # AV_INT is a count
        cells.extend(_fmt(v) for v in row[1:])
        lines.append(",".join(cells))
    dropped_lines = ["tract_id,reason"]
    for tract_id, reason in table.dropped:
        dropped_lines.append(f"{tract_id},{reason}")
    return {
        "variables.csv": "\n".join(lines) + "\n",
        "dropped.csv": "\n".join(dropped_lines) + "\n",
    }


def emit_moran_csv(moran: list[tuple[str, MoranResult]]) -> dict[str, str]:
    lines = ["variable,moran_i,expected,pseudo_p,permutations,seed"]
    for name, res in moran:
        lines.append(
            f"{name},{_fmt(res.I)},{_fmt(res.expected)},{_fmt(res.pseudo_p)},"
            f"{res.permutations},{res.seed}"
        )
    return {"moran.csv": "\n".join(lines) + "\n"}


def emit_pca_tables(
    table: VariableTable,
    pca: PcaResult,
    loading_corr: np.ndarray,
    thresholds: ContributorThresholds,
    names: tuple[str, ...] = VARIABLE_COLUMNS,
) -> dict[str, str]:
    """Render the six PCA-side report CSVs; numbers carry 6 decimal places.
    var_corr.csv is the correlation matrix the PCA decomposed."""
    names = list(names)
    p = pca.n_components
    pcs = [f"PC{k + 1}" for k in range(p)]
    files = {}

    lines = ["component,eigenvalue,proportion,cumulative"]
    cum = 0.0
    for k in range(p):
        cum += pca.proportions[k]
        lines.append(
            f"{pcs[k]},{_fmt(pca.eigenvalues[k])},{_fmt(pca.proportions[k])},{_fmt(cum)}"
        )
    files["variance.csv"] = "\n".join(lines) + "\n"

    lines = ["variable," + ",".join(pcs)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(_fmt(v) for v in pca.loadings[i]))
    files["loadings.csv"] = "\n".join(lines) + "\n"

    lines = ["component,significant,secondary"]
    for k in range(p):
        column = [(name, pca.loadings[i, k]) for i, name in enumerate(names)]
        significant, secondary = classify_contributors(column, thresholds)
        sig = "|".join(n for n in names if n in significant)
        sec = "|".join(n for n in names if n in secondary)
        lines.append(f"{pcs[k]},{sig},{sec}")
    files["contributors.csv"] = "\n".join(lines) + "\n"
    files["var_corr.csv"] = _matrix_csv(names, pca.correlation)
    files["loading_corr.csv"] = _matrix_csv(names, loading_corr)

    lines = ["tract_id," + ",".join(pcs)]
    for tract_id, row in zip(table.tract_ids, pca.scores):
        lines.append(tract_id + "," + ",".join(_fmt(v) for v in row))
    files["scores.csv"] = "\n".join(lines) + "\n"
    return files


def emit_geojson(
    tracts: list[TractGeometry],
    scores: dict[str, list[float]],
    classes: dict[str, list[str]],
    *,
    dropped: dict[str, str] | None = None,
    components: int = 4,
) -> Iterator[str]:
    """Render a FeatureCollection echoing input geometry with score/class
    properties (pcK_score, pcK_class). Dropped tracts keep their geometry,
    carry null scores, and record dropped_reason.

    The inputs are checked now; the document comes back as a lazy stream
    of text chunks, so it is never held as one string."""
    dropped = dropped or {}
    known = {t.tract_id for t in tracts}
    for tract_id in scores:
        if tract_id not in known:
            raise DomainError(f"scores reference unknown tract {tract_id!r}")
        if len(scores[tract_id]) < components or len(classes.get(tract_id, [])) < components:
            raise DomainError(f"tract {tract_id}: fewer than {components} component scores")
    features = []
    for tract in sorted(tracts, key=lambda t: t.tract_id):
        props: dict[str, object] = {"tract_id": tract.tract_id}
        if tract.tract_id in scores:
            for k in range(components):
                props[f"pc{k + 1}_score"] = round(scores[tract.tract_id][k], 6)
            for k in range(components):
                props[f"pc{k + 1}_class"] = classes[tract.tract_id][k]
        elif tract.tract_id in dropped:
            for k in range(components):
                props[f"pc{k + 1}_score"] = None
            for k in range(components):
                props[f"pc{k + 1}_class"] = None
            props["dropped_reason"] = dropped[tract.tract_id]
        else:
            raise DomainError(
                f"tract {tract.tract_id} has neither scores nor a drop reason"
            )
        features.append(
            {
                "type": "Feature",
                "properties": props,
                "geometry": tract.source_geometry,
            }
        )
    doc = {"type": "FeatureCollection", "features": features}
    return chain(json.JSONEncoder(indent=2).iterencode(doc), ["\n"])


def _svg_path(tract: TractGeometry, to_svg) -> str:
    cmds = []
    for part in tract.parts:
        for ring in part.rings:
            pts = ring[:-1]
            cmds.append(
                "M "
                + " L ".join(f"{to_svg(p)[0]:.2f},{to_svg(p)[1]:.2f}" for p in pts)
                + " Z"
            )
    return " ".join(cmds)


def emit_svg_choropleth(
    tracts: list[TractGeometry],
    classes: dict[str, str],
    component_index: int,
    *,
    width: int = 640,
    height: int = 560,
) -> str:
    """Render one box-map choropleth as SVG.

    One path per tract (holes via even-odd fill), filled from the fixed
    6-color palette, plus a 6-swatch legend. Output is deterministic.
    """
    for tract in tracts:
        cls = classes.get(tract.tract_id)
        if cls not in BOX_PALETTE:
            raise DomainError(f"tract {tract.tract_id}: unknown class {cls!r}")
    xmin, ymin, xmax, ymax = parts_bounds([p for t in tracts for p in t.parts])
    pad = 10.0
    legend_w = 150.0
    map_w = width - legend_w - 2 * pad
    map_h = height - 2 * pad
    span_x = xmax - xmin or 1.0
    span_y = ymax - ymin or 1.0
    scale = min(map_w / span_x, map_h / span_y)

    def to_svg(p):
        return (pad + (p.x - xmin) * scale, pad + (ymax - p.y) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{pad:.0f}" y="{height - 2:.0f}" font-size="12" font-family="sans-serif">'
        f"PC{component_index + 1} box map (hinge classes)</text>",
        '<g stroke="#333333" stroke-width="1" fill-rule="evenodd">',
    ]
    for tract in sorted(tracts, key=lambda t: t.tract_id):
        fill = BOX_PALETTE[classes[tract.tract_id]]
        parts.append(f'<path d="{_svg_path(tract, to_svg)}" fill="{fill}"/>')
    parts.append("</g>")
    lx = width - legend_w
    for i, cls in enumerate(BOX_CLASSES):
        ly = pad + i * 24
        parts.append(
            f'<rect class="legend-swatch" x="{lx:.0f}" y="{ly:.0f}" width="18" height="18" '
            f'fill="{BOX_PALETTE[cls]}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{lx + 24:.0f}" y="{ly + 14:.0f}" font-size="12" '
            f'font-family="sans-serif">{escape(CLASS_LABELS[cls])}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
