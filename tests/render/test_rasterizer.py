"""Z-buffered rasterization: coverage, occlusion, depth, clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.mesh import Mesh, plane
from repro.render.rasterizer import render, sky_gradient
from repro.render.shading import DirectionalLight, Material


def quad_at(z: float, size: float = 2.0, x: float = 0.0, y: float = 0.0) -> Mesh:
    """A camera-facing square at view depth ``z`` (camera at origin, -Z)."""
    h = size / 2
    verts = np.array(
        [[x - h, y - h, z], [x + h, y - h, z], [x + h, y + h, z], [x - h, y + h, z]]
    )
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    uvs = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.float64)
    return Mesh(verts, faces, uvs)


@pytest.fixture
def camera() -> Camera:
    return Camera(position=np.array([0.0, 0.0, 0.0]), target=np.array([0.0, 0.0, -1.0]), far=100.0)


RED = Material(base_color=(1.0, 0.0, 0.0), unlit=True)
BLUE = Material(base_color=(0.0, 0.0, 1.0), unlit=True)


class TestCoverage:
    def test_centered_quad_covers_center(self, camera):
        out = render([(quad_at(-5.0), RED)], camera, 40, 30)
        np.testing.assert_allclose(out.color[15, 20], [1.0, 0.0, 0.0])
        assert out.depth[15, 20] == pytest.approx(5.0 / 100.0, abs=1e-6)

    def test_background_untouched(self, camera):
        out = render([(quad_at(-5.0, size=0.5), RED)], camera, 40, 30)
        assert out.depth[0, 0] == 1.0  # sky
        assert out.depth[15, 20] < 1.0

    def test_empty_scene_is_background(self, camera):
        out = render([], camera, 32, 24, background=(0.1, 0.2, 0.3))
        np.testing.assert_allclose(out.color, np.broadcast_to([0.1, 0.2, 0.3], (24, 32, 3)))
        np.testing.assert_array_equal(out.depth, 1.0)

    def test_offscreen_geometry_ignored(self, camera):
        out = render([(quad_at(-5.0, x=100.0), RED)], camera, 32, 24)
        assert (out.depth == 1.0).all()


class TestOcclusion:
    def test_near_quad_wins(self, camera):
        out = render([(quad_at(-10.0), BLUE), (quad_at(-5.0, size=1.0), RED)], camera, 40, 30)
        np.testing.assert_allclose(out.color[15, 20], [1.0, 0.0, 0.0])

    def test_draw_order_irrelevant(self, camera):
        a = render([(quad_at(-10.0), BLUE), (quad_at(-5.0, size=1.0), RED)], camera, 40, 30)
        b = render([(quad_at(-5.0, size=1.0), RED), (quad_at(-10.0), BLUE)], camera, 40, 30)
        np.testing.assert_array_equal(a.color, b.color)
        np.testing.assert_array_equal(a.depth, b.depth)

    def test_depth_linearized(self, camera):
        near = render([(quad_at(-10.0), RED)], camera, 20, 16).depth[8, 10]
        far = render([(quad_at(-50.0, size=20.0), RED)], camera, 20, 16).depth[8, 10]
        assert near == pytest.approx(0.1, abs=1e-6)
        assert far == pytest.approx(0.5, abs=1e-6)

    def test_beyond_far_plane_clipped(self, camera):
        out = render([(quad_at(-150.0), RED)], camera, 20, 16)
        assert (out.depth == 1.0).all()


class TestNearClipping:
    def test_straddling_geometry_still_renders(self):
        """A ground plane passing under the camera must not vanish."""
        camera = Camera(
            position=np.array([0.0, 1.0, 0.0]),
            target=np.array([0.0, 0.5, -5.0]),
            far=100.0,
        )
        ground = plane(4, 60).transformed(np.eye(4))  # spans z in [-30, 30]
        out = render([(ground, RED)], camera, 40, 30)
        # Lower half of the image shows the ground.
        assert (out.depth[25] < 1.0).any()

    def test_fully_behind_camera_rejected(self, camera):
        out = render([(quad_at(5.0), RED)], camera, 20, 16)
        assert (out.depth == 1.0).all()


class TestShadingIntegration:
    def test_lambert_applied(self, camera):
        lit_mat = Material(base_color=(1.0, 1.0, 1.0))
        light = DirectionalLight(direction=(0, 0, 1), ambient=0.3)
        out = render([(quad_at(-5.0), lit_mat)], camera, 20, 16, light=light)
        # Quad normal faces +Z (toward camera); light travels +Z, i.e. away
        # from the visible face -> only the ambient floor remains.
        center = out.color[8, 10]
        assert center[0] == pytest.approx(0.3, abs=0.02)

    def test_perspective_correct_uv(self, camera):
        """A checker textured quad viewed straight-on has symmetric pattern."""
        mat = Material(
            base_color=(0.5, 0.5, 0.5), texture="checker", texture_scale=4,
            detail_strength=1.0, unlit=True, lod_distance=1e9,
        )
        out = render([(quad_at(-5.0, size=3.0), mat)], camera, 64, 64)
        row = out.color[32, :, 0]
        covered = row[row > 0]  # quad pixels only
        bright_left = (covered[: len(covered) // 2] > 0.5).mean()
        bright_right = (covered[len(covered) // 2 :] > 0.5).mean()
        assert abs(bright_left - bright_right) < 0.25


def _layered(first: Mesh, second: Mesh, offset: float = 10.0) -> Mesh:
    """One mesh holding ``first`` then ``second`` with ``second``'s u shifted."""
    shifted = Mesh(second.vertices, second.faces, second.uvs + (offset, 0.0))
    return first.merged_with(shifted)


def _u_marker(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Texture that is 1 on u >= 5 (a shifted layer) and 0 elsewhere."""
    del v
    return (np.asarray(u) >= 5.0).astype(np.float64)


#: Unlit, undimmed by LOD: color is 0 where the marker is 0, 1 where it is 1.
MARKED = Material(
    base_color=(0.5, 0.5, 0.5), texture=_u_marker, texture_scale=1.0,
    detail_strength=1.0, unlit=True, lod_distance=1e12,
)


class TestRasterEdgeCases:
    """Exact z-test and ordering semantics every rasterizer must keep."""

    def test_coplanar_equal_depth_first_submitted_wins(self, camera):
        a = render([(quad_at(-5.0), RED), (quad_at(-5.0), BLUE)], camera, 40, 30)
        b = render([(quad_at(-5.0), BLUE), (quad_at(-5.0), RED)], camera, 40, 30)
        covered = a.depth < 1.0
        assert covered.sum() > 50
        np.testing.assert_array_equal(a.color[covered], np.broadcast_to([1.0, 0.0, 0.0], (covered.sum(), 3)))
        np.testing.assert_array_equal(b.color[covered], np.broadcast_to([0.0, 0.0, 1.0], (covered.sum(), 3)))
        np.testing.assert_array_equal(a.depth, b.depth)

    def test_coplanar_tie_within_one_mesh_keeps_face_order(self, camera):
        out = render([(_layered(quad_at(-5.0), quad_at(-5.0)), MARKED)], camera, 40, 30)
        covered = out.depth < 1.0
        assert covered.sum() > 50
        assert out.color[covered].max() < 0.01  # first layer (u < 5) everywhere

    def test_fragment_exactly_at_far_plane_keeps_background(self):
        # far = 64 makes 1/w exact; vertex 0 sits on the view axis at the far
        # plane and lands exactly on the centre pixel of an odd viewport, so
        # its barycentrics are exactly (1, 0, 0) and its depth exactly 1.0.
        camera = Camera(position=np.zeros(3), target=np.array([0.0, 0.0, -1.0]), far=64.0)
        tri = Mesh(
            np.array([[0.0, 0.0, -64.0], [-3.0, -3.0, -4.0], [3.0, -3.0, -4.0]]),
            np.array([[0, 1, 2]]),
            np.zeros((3, 2)),
        )
        bg = (0.1, 0.2, 0.3)
        out = render([(tri, RED)], camera, 31, 21, background=bg)
        assert out.depth[10, 15] == 1.0
        np.testing.assert_array_equal(out.color[10, 15], bg)
        assert out.depth[12, 15] < 1.0  # the rest of the triangle is drawn
        at_far = out.depth == 1.0
        np.testing.assert_array_equal(out.color[at_far], np.broadcast_to(bg, (at_far.sum(), 3)))

    def test_near_straddling_quad_fans_in_submission_order(self):
        camera = Camera(
            position=np.array([0.0, 1.0, 0.0]), target=np.array([0.0, 0.5, -5.0]), far=100.0
        )
        # Rows near the camera straddle the near plane and are clipped and
        # fan-triangulated; rows further away are not. Both layers share the
        # geometry exactly, so every covered pixel is an equal-depth tie that
        # the first layer must win, clipped faces included.
        ground = plane(4, 60, divisions=6)
        out = render([(_layered(ground, ground), MARKED)], camera, 40, 30)
        covered = out.depth < 1.0
        assert covered[25].any() and covered.sum() > 200
        assert out.color[covered].max() < 0.01
        assert (out.depth[covered] < 0.1).any()  # clipped rows reach the camera

    def test_custom_callable_texture(self, camera):
        def halves(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            del v
            return (np.asarray(u) >= 0.5).astype(np.float64)

        mat = Material(
            base_color=(0.4, 0.4, 0.4), texture=halves, texture_scale=1.0,
            detail_strength=1.0, unlit=True, lod_distance=1e12,
        )
        out = render([(quad_at(-5.0), mat)], camera, 40, 30)
        row = out.color[15, :, 0]
        covered = out.depth[15] < 1.0
        assert set(np.round(row[covered], 6)) == {0.0, 0.8}
        cols = np.flatnonzero(covered)
        assert row[cols[0]] == pytest.approx(0.0, abs=1e-9) and row[cols[-1]] == pytest.approx(0.8)

    def test_lit_and_unlit_in_one_frame(self, camera):
        light = DirectionalLight(direction=(0.0, -1.0, -1.0), intensity=1.0, ambient=0.25)
        lit = Material(base_color=(0.8, 0.6, 0.4))
        unlit = Material(base_color=(0.8, 0.6, 0.4), unlit=True)
        out = render(
            [(quad_at(-5.0, size=1.0, x=-1.0), lit), (quad_at(-5.0, size=1.0, x=1.0), unlit)],
            camera, 40, 30, light=light,
        )
        # The quads face +Z; the light comes in at 45 degrees to that normal.
        lambert = max(0.0, float(-light.unit_direction() @ np.array([0.0, 0.0, 1.0])))
        shade = light.ambient + light.intensity * lambert * (1 - light.ambient)
        covered = out.depth < 1.0
        left, right = covered.copy(), covered.copy()
        left[:, 20:] = False
        right[:, :20] = False
        assert left.sum() > 20 and right.sum() > 20
        np.testing.assert_array_equal(out.color[right], np.broadcast_to([0.8, 0.6, 0.4], (right.sum(), 3)))
        lit_rgb = np.clip(np.array([0.8, 0.6, 0.4]) * shade, 0, 1)
        np.testing.assert_array_equal(out.color[left], np.broadcast_to(lit_rgb, (left.sum(), 3)))
        assert 0.0 < lambert < 1.0 and not (lit_rgb == [0.8, 0.6, 0.4]).any()

    def test_nothing_covers_a_pixel_centre(self, camera):
        # A sub-pixel quad between pixel centres: a non-empty bbox, no fragment.
        bg = (0.3, 0.3, 0.3)
        out = render([(quad_at(-5.0, size=0.01), RED)], camera, 40, 30, background=bg)
        np.testing.assert_array_equal(out.depth, 1.0)
        np.testing.assert_array_equal(out.color, np.broadcast_to(bg, (30, 40, 3)))


class TestValidation:
    def test_viewport_too_small(self, camera):
        with pytest.raises(ValueError):
            render([], camera, 1, 10)

    def test_background_shape_check(self, camera):
        with pytest.raises(ValueError, match="background"):
            render([], camera, 10, 10, background=np.zeros((5, 5, 3)))

    def test_sky_gradient_shape(self):
        sky = sky_gradient(30, 20)
        assert sky.shape == (20, 30, 3)
        assert not np.array_equal(sky[0], sky[-1])  # vertical gradient
