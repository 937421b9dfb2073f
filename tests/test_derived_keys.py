"""Serving keys are derived from the request's own dataclass fields.

``Camera.key()`` and ``RenderRequest.key()`` enumerate
``dataclasses.fields`` instead of naming fields by hand, and the frame
key (``RenderService._frame_key``) and the coalescing key
(``RenderGateway._coalesce_key``) are both built from
``RenderRequest.key``.  So a dropped ``level`` or a new request field
cannot leave a key site behind: these tests add a field to a request
subclass and see every key change.
"""

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from repro.gaussians.camera import Camera, look_at
from repro.gaussians.synthetic import SyntheticConfig, make_synthetic_scene
from repro.serving import RenderGateway, RenderRequest, RenderService, SceneStore


@dataclass(frozen=True)
class EpochRequest(RenderRequest):
    """A request type grown by one field, as a scene ``epoch`` would add."""

    epoch: int = 0


@pytest.fixture(scope="module")
def store() -> SceneStore:
    config = SyntheticConfig(num_gaussians=120, width=48, height=32, seed=3)
    return SceneStore([make_synthetic_scene(config, name="keys", num_cameras=2)])


def _camera(**overrides) -> Camera:
    values = dict(
        width=48, height=32, fx=40.0, fy=42.0, cx=23.5, cy=16.5,
        world_to_camera=look_at([0.0, 0.5, -3.0], [0.0, 0.0, 0.0]),
        znear=0.1, zfar=50.0,
    )
    values.update(overrides)
    return Camera(**values)


def _perturbed(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, np.ndarray):
        changed = value.copy()
        changed[0, 3] += 0.25
        return changed
    return value + 1


class TestCameraKey:
    @pytest.mark.parametrize("name", [f.name for f in fields(Camera)])
    def test_every_field_changes_the_key(self, name):
        camera = _camera()
        other = replace(camera, **{name: _perturbed(getattr(camera, name))})
        assert other.key() != camera.key()

    def test_equal_cameras_built_separately_share_a_key(self):
        first, second = _camera(), _camera()
        assert first is not second
        assert first.key() == second.key()
        assert hash(first.key()) == hash(second.key())

    def test_default_principal_point_matches_an_explicit_one(self):
        assert _camera(cx=None, cy=None).key() == _camera(cx=24.0, cy=16.0).key()


class TestRequestKeys:
    def test_scene_index_leads_and_level_is_resolved(self, store):
        camera = store.get_cameras(0)[0]
        request = RenderRequest(scene_id="keys", camera=camera)
        assert request.key(0, 2) == (0, 2, camera.key())

    def test_extra_request_field_reaches_the_frame_key(self, store):
        service = RenderService(store)
        camera = store.get_cameras(0)[0]
        old, new = EpochRequest(0, camera, epoch=0), EpochRequest(0, camera, epoch=1)
        assert service._frame_key(old, 0, 0) != service._frame_key(new, 0, 0)
        assert service._frame_key(old, 0, 0) == service._frame_key(
            EpochRequest(0, camera, epoch=0), 0, 0
        )
        # Served end to end, the two epochs are two frames, not a cache hit.
        report = service.serve([old, new])
        assert report.num_rendered == 2
        assert report.frame_cache.hits == 0

    def test_extra_request_field_reaches_the_coalesce_key(self, store):
        gateway = RenderGateway(RenderService(store))
        camera = store.get_cameras(0)[0]
        old, new = EpochRequest(0, camera, epoch=0), EpochRequest(0, camera, epoch=1)
        assert gateway._coalesce_key(old) != gateway._coalesce_key(new)
        assert gateway._coalesce_key(old) == gateway._coalesce_key(
            EpochRequest("keys", camera, epoch=0)
        )

    def test_level_is_in_every_key(self, store):
        service = RenderService(store)
        gateway = RenderGateway(service)
        camera = store.get_cameras(0)[0]
        request = RenderRequest(0, camera)
        assert service._frame_key(request, 0, 0) != service._frame_key(
            request, 0, 1
        )
        assert gateway._coalesce_key(request) != gateway._coalesce_key(
            RenderRequest(0, camera, level=1)
        )

    def test_frame_key_carries_the_render_settings(self, store):
        camera = store.get_cameras(0)[0]
        request = RenderRequest(0, camera)
        plain = RenderService(store)._frame_key(request, 0, 0)
        grey = RenderService(store, background=(0.5, 0.5, 0.5))._frame_key(
            request, 0, 0
        )
        assert plain != grey
        assert plain[:-2] == request.key(0, 0)
