"""Z-buffered triangle rasterizer — the GPU of our game-streaming server.

Implements the pipeline of paper Fig. 4 in software: vertex processing
(model-view-projection transform), primitive assembly, near-plane clipping,
rasterization with barycentric edge functions, perspective-correct
attribute interpolation, pixel shading, and — crucially for GameStreamSR —
a **depth buffer** output of the same resolution as the color buffer,
exactly what the server-side RoI detector consumes.

Rendering is deferred, in two array passes over the whole frame:

1. **Visibility.** Every triangle of the frame, in submission order, is
   expanded at once into candidate fragments (its bounding box, cut per
   row to a conservative scanline span); edge functions, the inside
   test, ``1/w`` and depth are evaluated per fragment. Each pixel
   keeps the fragment with the lowest ``(depth, submission index)`` among
   those with ``depth < 1`` — exactly what a strict ``<`` z-test in
   submission order keeps: the earliest fragment wins a tie and a
   fragment at the far plane never overwrites the background.
2. **Shading.** Perspective-correct uv is interpolated for the winning
   fragments only, and each material shades all of its visible pixels in
   one call (in cache-sized blocks on large frames). Shading is per
   fragment, so the frame is bit-identical to shading every triangle as
   it is drawn — minus the overdrawn work.

Depth convention: the returned ``depth`` buffer holds *linearized* view
distance normalized by the far plane, in [0, 1] with 0 at the camera and
1 at the far plane / background. (Hardware Z-buffers store a nonlinear
quantity; ReShade-style depth shaders — the tool the paper uses to capture
depth — linearize it before use, so we expose the linearized form
directly. It is what Fig. 5's grayscale depth map shows.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from .camera import Camera
from .math3d import transform_points
from .mesh import Mesh
from .shading import DirectionalLight, Material

__all__ = ["RenderOutput", "render", "sky_gradient"]

#: Triangles whose doubled signed screen-space area is below this are
#: treated as degenerate (edge-on or collapsed) and skipped.
_DEGENERATE_TRIANGLE_AREA = 1e-12

#: A pixel centre is inside a triangle when all three barycentrics are at
#: least ``-_EDGE_TOLERANCE``, so shared edges leave no cracks.
_EDGE_TOLERANCE = 1e-9

#: Relative slack of the scanline-span cull over a rounding-error bound.
#: Evaluating an edge function rounds it by a few ulps of its largest
#: product term; the cull keeps every pixel within this many times that
#: bound of the edge (1e-6 is ~1e10 ulps), so no pixel the exact inside
#: test would accept is ever culled.
_SPAN_SLACK = 1e-6

#: Most candidate fragments evaluated at once; a frame with more is
#: resolved in consecutive chunks, in submission order, to bound memory.
_FRAGMENT_CHUNK = 1 << 16

#: Most pixels one ``Material.shade_fragments`` call shades. Larger calls
#: spill the procedural textures' temporaries out of cache and run slower.
_SHADE_BLOCK = 1 << 13

#: Sentinel fragment index: above any index within a chunk.
_NO_FRAGMENT = np.iinfo(np.intp).max


@dataclass(frozen=True)
class RenderOutput:
    """One rendered frame: color framebuffer + depth buffer (Fig. 5)."""

    color: np.ndarray  # (H, W, 3) float in [0, 1]
    depth: np.ndarray  # (H, W) float in [0, 1]; 0 = near, 1 = far/background

    @property
    def resolution(self) -> tuple[int, int]:
        return self.color.shape[0], self.color.shape[1]


def sky_gradient(
    width: int,
    height: int,
    horizon=(0.75, 0.82, 0.92),
    zenith=(0.35, 0.55, 0.85),
) -> np.ndarray:
    """Vertical sky gradient used as the default background."""
    t = np.linspace(0.0, 1.0, height)[:, None, None]
    horizon = np.asarray(horizon, dtype=np.float64)
    zenith = np.asarray(zenith, dtype=np.float64)
    return np.broadcast_to(zenith * (1 - t) + horizon * t, (height, width, 3)).copy()


def _clip_near(
    positions: np.ndarray, uvs: np.ndarray, near_w: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of one triangle against ``w >= near_w``.

    ``positions``: (3, 4) clip coordinates; ``uvs``: (3, 2). Returns the
    clipped polygon as ((K, 4), (K, 2)) with K in {0, 3, 4}.
    """
    out_pos: List[np.ndarray] = []
    out_uv: List[np.ndarray] = []
    for i in range(3):
        current_p, current_uv = positions[i], uvs[i]
        next_p, next_uv = positions[(i + 1) % 3], uvs[(i + 1) % 3]
        current_in = current_p[3] >= near_w
        next_in = next_p[3] >= near_w
        if current_in:
            out_pos.append(current_p)
            out_uv.append(current_uv)
        if current_in != next_in:
            t = (near_w - current_p[3]) / (next_p[3] - current_p[3])
            out_pos.append(current_p + t * (next_p - current_p))
            out_uv.append(current_uv + t * (next_uv - current_uv))
    if len(out_pos) < 3:
        return np.empty((0, 4)), np.empty((0, 2))
    return np.asarray(out_pos), np.asarray(out_uv)


def render(
    objects: Sequence[tuple[Mesh, Material]],
    camera: Camera,
    width: int,
    height: int,
    light: DirectionalLight | None = None,
    background: np.ndarray | tuple[float, float, float] | None = None,
) -> RenderOutput:
    """Render world-space ``(mesh, material)`` pairs to a framebuffer.

    Meshes must already be in world space (apply model transforms first via
    :meth:`Mesh.transformed`).
    """
    if width < 2 or height < 2:
        raise ValueError(f"viewport too small: {width}x{height}")
    light = light or DirectionalLight()

    if background is None:
        color = sky_gradient(width, height)
    elif isinstance(background, np.ndarray) and background.ndim == 3:
        if background.shape != (height, width, 3):
            raise ValueError(
                f"background shape {background.shape} != ({height}, {width}, 3)"
            )
        color = background.astype(np.float64).copy()
    else:
        color = np.broadcast_to(
            np.asarray(background, dtype=np.float64), (height, width, 3)
        ).copy()
    depth = np.ones((height, width), dtype=np.float64)

    distinct = {id(material): material for _, material in objects}
    slots = {key: i for i, key in enumerate(distinct)}
    tris = _assemble(
        objects,
        [slots[id(material)] for _, material in objects],
        camera.view_projection(width, height),
        camera.near,
        light,
    )
    frags = _resolve_visibility(tris, width, height, camera.far, depth.reshape(-1))
    _shade(frags, tris, list(distinct.values()), light, color.reshape(-1, 3))
    return RenderOutput(color=color, depth=depth)


class _Triangles(NamedTuple):
    """Every triangle of a frame, in submission order."""

    positions: np.ndarray  # (T, 3, 4) clip coordinates, all w >= near
    inv_w: np.ndarray  # (3, T) 1/w at each vertex
    uvs: np.ndarray  # (T, 3, 2)
    material: np.ndarray  # (T,) index into the frame's distinct materials
    lambert: np.ndarray  # (T,) clamped Lambert cosine of the source face


class _Fragments(NamedTuple):
    """The winning fragment of every covered pixel, by flat pixel index."""

    pixel: np.ndarray  # (P,) flat pixel indices
    triangle: np.ndarray  # (P,) submission index of the winning triangle
    bary: np.ndarray  # (3, P) barycentrics b0, b1, b2
    one_over_w: np.ndarray  # (P,) interpolated 1/w


def _assemble(
    objects: Sequence[tuple[Mesh, Material]],
    material_slots: Sequence[int],
    mvp: np.ndarray,
    near_w: float,
    light: DirectionalLight,
) -> _Triangles:
    """Vertex processing and primitive assembly for a whole frame.

    Faces entirely behind the near plane are dropped; faces straddling it
    are clipped and fan-triangulated in place (see :func:`_fan_clipped`).
    """
    # Seeded with empty arrays so a frame without objects concatenates too.
    positions, uvs = [np.empty((0, 3, 4))], [np.empty((0, 3, 2))]
    material, lambert = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for (mesh, mat), slot in zip(objects, material_slots):
        pos = transform_points(mvp, mesh.vertices)[mesh.faces]  # (F, 3, 4)
        uv = mesh.uvs[mesh.faces]
        behind = (pos[:, :, 3] < near_w).sum(axis=1)
        faces = np.flatnonzero(behind == 0)
        straddling = np.flatnonzero((behind > 0) & (behind < 3))
        if len(straddling):
            pos, uv, faces = _fan_clipped(pos, uv, faces, straddling, near_w)
        else:
            pos, uv = pos[faces], uv[faces]
        positions.append(pos)
        uvs.append(uv)
        material.append(np.full(len(faces), slot, dtype=np.intp))
        if mat.unlit:
            lambert.append(np.zeros(len(faces)))
        else:
            lambert.append(light.lambert(mesh.face_normals())[faces])
    positions = np.concatenate(positions)
    return _Triangles(
        positions,
        np.ascontiguousarray((1.0 / positions[:, :, 3]).T),
        np.concatenate(uvs),
        np.concatenate(material),
        np.concatenate(lambert),
    )


def _fan_clipped(
    pos: np.ndarray, uv: np.ndarray, kept: np.ndarray, straddling: np.ndarray, near_w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the ``kept`` faces with the clipped fans of ``straddling`` ones.

    Returns (positions, uvs, source face) in face order, each fan (one or
    two triangles) in place of the face it came from. This near-clip
    fallback is the rasterizer's only per-face Python loop.
    """
    order, faces, pos_parts, uv_parts = [2 * kept], [kept], [pos[kept]], [uv[kept]]
    for f in straddling:
        poly_pos, poly_uv = _clip_near(pos[f], uv[f], near_w)
        fan = [[0, k, k + 1] for k in range(1, len(poly_pos) - 1)]
        order.append(2 * f + np.arange(len(fan)))
        faces.append(np.full(len(fan), f))
        pos_parts.append(poly_pos[fan])
        uv_parts.append(poly_uv[fan])
    keep = np.argsort(np.concatenate(order))
    return (
        np.concatenate(pos_parts)[keep],
        np.concatenate(uv_parts)[keep],
        np.concatenate(faces)[keep],
    )


def _resolve_visibility(
    tris: _Triangles, width: int, height: int, far: float, depth: np.ndarray
) -> _Fragments:
    """Z-test every fragment of the frame; fills the flat ``depth`` buffer.

    Returns each covered pixel's winner: the fragment with the lowest
    ``(depth, submission index)`` among those with depth below 1.
    """
    w_clip = tris.positions[:, :, 3]
    ndc = tris.positions[:, :, :3] / w_clip[:, :, None]
    xs = (ndc[:, :, 0] + 1.0) * 0.5 * (width - 1)
    ys = (1.0 - ndc[:, :, 1]) * 0.5 * (height - 1)
    spans = _scanline_spans(xs, ys, width, height)

    n_pixels = width * height
    owner = np.full(n_pixels, -1, dtype=np.intp)
    bary = np.empty((3, n_pixels))
    one_over_w = np.empty(n_pixels)
    # Per-chunk scratch, reset after each chunk at the pixels it touched.
    nearest = np.full(n_pixels, np.inf)
    first = np.full(n_pixels, _NO_FRAGMENT, dtype=np.intp)
    ends = np.cumsum(spans.length)
    begin = 0
    while begin < len(ends):
        # Consecutive spans, so fragments stay in submission order.
        budget = (ends[begin - 1] if begin else 0) + _FRAGMENT_CHUNK
        end = max(begin + 1, int(np.searchsorted(ends, budget, side="right")))
        seg = slice(begin, end)
        begin = end

        tri, pixel, b0, b1, b2 = _covered_fragments(spans, seg, width)
        # Perspective-correct interpolation of 1/w gives the true view distance.
        iw0, iw1, iw2 = (tris.inv_w[k][tri] for k in range(3))
        frag_oow = b0 * iw0 + b1 * iw1 + b2 * iw2
        frag_depth = np.clip((1.0 / frag_oow) / far, 0.0, 1.0)

        front = np.flatnonzero(frag_depth < 1.0)
        pixel, z = pixel[front], frag_depth[front]
        # Per pixel: the lowest depth, then the first fragment reaching it.
        # Fragments are in submission order, so the first is the earliest.
        np.minimum.at(nearest, pixel, z)
        ties = np.flatnonzero(z == nearest[pixel])
        tie_pixel = pixel[ties]
        np.minimum.at(first, tie_pixel, ties)
        best = ties[first[tie_pixel] == ties]
        nearest[pixel] = np.inf
        first[tie_pixel] = _NO_FRAGMENT
        # Earlier chunks were submitted first, so only a strictly closer
        # fragment replaces their winner.
        best = best[z[best] < depth[pixel[best]]]
        won = pixel[best]
        depth[won] = z[best]
        src = front[best]
        owner[won] = tri[src]
        bary[0, won], bary[1, won], bary[2, won] = b0[src], b1[src], b2[src]
        one_over_w[won] = frag_oow[src]
    pixel = np.flatnonzero(owner >= 0)
    return _Fragments(pixel, owner[pixel], bary[:, pixel], one_over_w[pixel])


class _Spans(NamedTuple):
    """Candidate pixel runs: one per (triangle, bounding-box row)."""

    triangle: np.ndarray  # (R,) submission index
    row: np.ndarray  # (R,) pixel row
    start: np.ndarray  # (R,) first candidate column
    length: np.ndarray  # (R,) candidate count (may be 0)
    x: np.ndarray  # (R, 3) vertex screen x
    dy: np.ndarray  # (R, 3) ``y_k - row`` per vertex
    area: np.ndarray  # (R,) doubled signed screen area


def _scanline_spans(xs: np.ndarray, ys: np.ndarray, width: int, height: int) -> _Spans:
    """Clip every triangle's bounding box to a conservative run per row.

    On a row, each barycentric is linear in the pixel column, so the
    pixels that can pass the inside test form one interval. The interval
    is widened by a margin far above the rounding error of evaluating the
    edge functions, plus one pixel, so it holds every pixel the exact
    test accepts; the exact test then runs on those candidates only.
    """
    min_x = np.clip(np.floor(xs.min(axis=1)), 0, width).astype(np.intp)
    max_x = np.clip(np.ceil(xs.max(axis=1)), -1, width - 1).astype(np.intp)
    min_y = np.clip(np.floor(ys.min(axis=1)), 0, height).astype(np.intp)
    max_y = np.clip(np.ceil(ys.max(axis=1)), -1, height - 1).astype(np.intp)
    area = (xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0]) - (xs[:, 2] - xs[:, 0]) * (
        ys[:, 1] - ys[:, 0]
    )
    live = np.flatnonzero(
        (min_x <= max_x) & (min_y <= max_y) & (np.abs(area) >= _DEGENERATE_TRIANGLE_AREA)
    )
    rows = (max_y - min_y + 1)[live]
    tri = np.repeat(live, rows)
    row = np.arange(len(tri)) - np.repeat(np.cumsum(rows) - rows - min_y[live], rows)
    x, a = xs[tri], area[tri]
    dy = ys[tri] - row.astype(np.float64)[:, None]

    # Barycentric k on this row is intercept[k] + slope[k] * column.
    intercept = np.empty_like(dy)
    intercept[:, 0] = (x[:, 1] * dy[:, 2] - x[:, 2] * dy[:, 1]) / a
    intercept[:, 1] = (x[:, 2] * dy[:, 0] - x[:, 0] * dy[:, 2]) / a
    intercept[:, 2] = 1.0 - intercept[:, 0] - intercept[:, 1]
    slope = np.stack([dy[:, 1] - dy[:, 2], dy[:, 2] - dy[:, 0], dy[:, 0] - dy[:, 1]], axis=1)
    slope /= a[:, None]
    # Rounding error of any term above is a few ulps of |x| * |y| / |area|.
    x_scale = np.abs(xs).max(axis=1)[tri] + width
    y_scale = np.abs(ys).max(axis=1)[tri] + height
    margin = _SPAN_SLACK * (1.0 + 4.0 * x_scale * y_scale / np.abs(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (-margin[:, None] - intercept) / slope
    lo = np.where(slope > 0, bound, -np.inf)
    hi = np.where(slope < 0, bound, np.inf)
    # fmax/fmin skip a NaN bound (overflowed coordinates): no cull there.
    lo = np.fmax(np.fmax(lo[:, 0], lo[:, 1]), lo[:, 2])
    hi = np.fmin(np.fmin(hi[:, 0], hi[:, 1]), hi[:, 2])
    dead = (slope == 0) & (intercept < -margin[:, None])
    dead = dead[:, 0] | dead[:, 1] | dead[:, 2]
    start = np.clip(np.ceil(lo) - 1, min_x[tri], max_x[tri] + 1).astype(np.intp)
    stop = np.clip(np.floor(hi) + 1, min_x[tri] - 1, max_x[tri]).astype(np.intp)
    length = np.where(dead, 0, np.maximum(stop - start + 1, 0))
    return _Spans(tri, row, start, length, x, dy, a)


def _covered_fragments(
    spans: _Spans, seg: slice, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand spans ``seg`` to candidates and keep those inside their triangle.

    Returns (triangle, flat pixel, b0, b1, b2) per covered fragment, in
    span order. Keep each expression's operation order: the render
    goldens pin the results bit for bit. Only ``y_k - py`` is hoisted,
    evaluated once per span rather than per pixel (same value).
    """
    length = spans.length[seg]
    tri = np.repeat(spans.triangle[seg], length)
    col = np.arange(len(tri)) - np.repeat(np.cumsum(length) - length - spans.start[seg], length)
    row = np.repeat(spans.row[seg], length)
    px = col.astype(np.float64)
    x0, x1, x2 = (np.repeat(spans.x[seg, k], length) for k in range(3))
    dy0, dy1, dy2 = (np.repeat(spans.dy[seg, k], length) for k in range(3))
    a = np.repeat(spans.area[seg], length)
    x2_px = x2 - px
    w0 = ((x1 - px) * dy2 - x2_px * dy1) / a
    w1 = (x2_px * dy0 - (x0 - px) * dy2) / a
    w2 = 1.0 - w0 - w1
    inside = np.flatnonzero(
        (w0 >= -_EDGE_TOLERANCE) & (w1 >= -_EDGE_TOLERANCE) & (w2 >= -_EDGE_TOLERANCE)
    )
    pixel = row[inside] * width + col[inside]
    return tri[inside], pixel, w0[inside], w1[inside], w2[inside]


def _shade(
    frags: _Fragments,
    tris: _Triangles,
    materials: Sequence[Material],
    light: DirectionalLight,
    color: np.ndarray,
) -> None:
    """Deferred shading of the visible fragments into the flat ``color``.

    Each material shades its visible pixels in one call, or in blocks of
    ``_SHADE_BLOCK`` pixels on large frames to keep the working set of the
    procedural textures in cache.
    """
    material = tris.material[frags.triangle]
    order = np.argsort(material, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(material[order])) + 1)
    vertex_uv = np.ascontiguousarray(tris.uvs.transpose(2, 1, 0))  # (2, 3, T)
    for run in runs if len(order) else ():
        shader = materials[material[run[0]]]
        for begin in range(0, len(run), _SHADE_BLOCK):
            sel = run[begin : begin + _SHADE_BLOCK]
            triangle = frags.triangle[sel]
            b0, b1, b2 = frags.bary[:, sel]
            iw0, iw1, iw2 = (tris.inv_w[k][triangle] for k in range(3))
            one_over_w = frags.one_over_w[sel]
            # Perspective-correct uv, for the winning fragments only.
            uv = np.empty((len(sel), 2))
            for c, (uv0, uv1, uv2) in enumerate(vertex_uv):
                uv[:, c] = (
                    b0 * uv0[triangle] * iw0 + b1 * uv1[triangle] * iw1 + b2 * uv2[triangle] * iw2
                ) / one_over_w
            color[frags.pixel[sel]] = shader.shade_fragments(
                uv, 1.0 / one_over_w, light, tris.lambert[triangle]
            )
