"""Materials, procedural textures, and the LOD/depth-detail property."""

from __future__ import annotations

import numpy as np
import pytest

from repro.render.shading import (
    DirectionalLight,
    Material,
    TEXTURES,
    bricks,
    checker,
    grass_detail,
    marble,
    stripes,
    value_noise,
)


class TestTextures:
    @pytest.mark.parametrize("name", sorted(TEXTURES))
    def test_range_and_determinism(self, name, rng):
        u = rng.uniform(0, 10, size=200)
        v = rng.uniform(0, 10, size=200)
        fn = TEXTURES[name]
        a = fn(u, v)
        b = fn(u, v)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= -1e-9 and a.max() <= 1 + 1e-9

    def test_checker_alternates(self):
        assert checker(np.array([0.5]), np.array([0.5]))[0] == 0.0
        assert checker(np.array([1.5]), np.array([0.5]))[0] == 1.0

    def test_stripes_period(self):
        u = np.array([0.25, 1.25])
        np.testing.assert_allclose(stripes(u, u), [1.0, 1.0])

    def test_value_noise_smooth(self):
        """Adjacent samples differ less than distant samples on average."""
        u = np.linspace(0, 5, 400)
        noise = value_noise(u, np.zeros_like(u))
        near_diff = np.abs(np.diff(noise)).mean()
        far_diff = np.abs(noise[:-50] - noise[50:]).mean()
        assert near_diff < far_diff

    def test_value_noise_seed_changes_field(self):
        u = np.linspace(0, 5, 50)
        a = value_noise(u, u, seed=1)
        b = value_noise(u, u, seed=2)
        assert not np.allclose(a, b)

    def test_bricks_have_mortar(self):
        u, v = np.meshgrid(np.linspace(0, 4, 64), np.linspace(0, 4, 64))
        pattern = bricks(u.ravel(), v.ravel())
        assert pattern.min() < 0.2 and pattern.max() > 0.7

    def test_marble_and_grass_vary(self):
        u = np.linspace(0, 3, 100)
        assert marble(u, u).std() > 0.05
        assert grass_detail(u, u).std() > 0.02


class TestLight:
    def test_unit_direction(self):
        light = DirectionalLight(direction=(0, -2, 0))
        np.testing.assert_allclose(light.unit_direction(), [0, -1, 0])

    def test_batched_lambert_matches_scalar_dot_bitwise(self, rng):
        light = DirectionalLight(direction=(0.3, -0.8, 0.5))
        normals = rng.normal(size=(500, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        scalar = [max(0.0, float(-light.unit_direction() @ n)) for n in normals]
        np.testing.assert_array_equal(light.lambert(normals), scalar)
        assert light.lambert(normals[0]) == scalar[0]


class TestMaterial:
    def test_unlit_ignores_light(self):
        mat = Material(base_color=(0.5, 0.5, 0.5), unlit=True)
        out = mat.shade(np.zeros((4, 2)), np.array([0, 1, 0]), np.ones(4), DirectionalLight())
        np.testing.assert_allclose(out, 0.5)

    def test_lambert_brightness_depends_on_normal(self):
        mat = Material(base_color=(1.0, 1.0, 1.0))
        light = DirectionalLight(direction=(0, -1, 0), ambient=0.2)
        uv = np.zeros((1, 2))
        lit = mat.shade(uv, np.array([0.0, 1.0, 0.0]), np.ones(1), light)
        unlit_facing = mat.shade(uv, np.array([0.0, -1.0, 0.0]), np.ones(1), light)
        assert lit[0, 0] > unlit_facing[0, 0]
        assert unlit_facing[0, 0] == pytest.approx(0.2)  # ambient floor

    def test_lod_fades_detail_with_distance(self):
        """The mipmap emulation: texture modulation shrinks as distance grows."""
        mat = Material(
            base_color=(0.5, 0.5, 0.5),
            texture="checker",
            texture_scale=8,
            detail_strength=0.8,
            lod_distance=10.0,
            unlit=True,
        )
        uv = np.stack([np.linspace(0, 1, 256), np.zeros(256)], axis=1)
        near = mat.shade(uv, np.array([0, 1, 0]), np.full(256, 1.0), DirectionalLight())
        far = mat.shade(uv, np.array([0, 1, 0]), np.full(256, 200.0), DirectionalLight())
        assert near.std() > 5 * far.std()

    def test_output_clipped(self):
        mat = Material(base_color=(1.0, 1.0, 1.0), texture="checker", detail_strength=1.0, unlit=True)
        uv = np.stack([np.linspace(0, 4, 64), np.zeros(64)], axis=1)
        out = mat.shade(uv, np.array([0, 1, 0]), np.ones(64), DirectionalLight())
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unknown_texture_name(self):
        mat = Material(texture="nonexistent")
        with pytest.raises(ValueError, match="unknown texture"):
            mat.shade(np.zeros((1, 2)), np.array([0, 1, 0]), np.ones(1), DirectionalLight())

    def test_callable_texture(self):
        mat = Material(texture=lambda u, v: np.ones_like(u), detail_strength=0.5, unlit=True)
        out = mat.shade(np.zeros((2, 2)), np.array([0, 1, 0]), np.ones(2), DirectionalLight())
        assert out.shape == (2, 3)

    def test_shade_fragments_equals_per_face_shade(self, rng):
        """One call over many faces == one ``shade`` call per face, bit for bit."""
        light = DirectionalLight(direction=(-0.4, -1.0, -0.3), ambient=0.3)
        normals = rng.normal(size=(4, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        face = rng.integers(0, 4, size=300)
        uv = rng.uniform(0, 6, size=(300, 2))
        distance = rng.uniform(0.5, 80.0, size=300)
        for mat in (Material(texture="marble"), Material(texture="grass", unlit=True)):
            batched = mat.shade_fragments(uv, distance, light, light.lambert(normals)[face])
            for f in range(4):
                sel = face == f
                per_face = mat.shade(uv[sel], normals[f], distance[sel], light)
                np.testing.assert_array_equal(batched[sel], per_face)
