"""Pinhole camera model used by both rendering pipelines.

The camera carries the intrinsics (focal lengths, principal point, image
size) and the world-to-camera rigid transform.  It is shared by the Gaussian
pipeline (projection of Gaussian centres and covariances) and the triangle
pipeline (vertex transformation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Tuple

import numpy as np


@dataclass
class Camera:
    """A pinhole camera.

    Attributes
    ----------
    width, height:
        Image resolution in pixels.
    fx, fy:
        Focal lengths in pixels.
    cx, cy:
        Principal point in pixels.  Defaults to the image centre.
    world_to_camera:
        ``(4, 4)`` rigid transform mapping world-space points to camera
        space.  Camera space follows the usual graphics convention: +x right,
        +y down, +z forward (points in front of the camera have positive z).
    znear, zfar:
        Near and far clipping planes.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float = None  # type: ignore[assignment]
    cy: float = None  # type: ignore[assignment]
    world_to_camera: np.ndarray = field(
        default_factory=lambda: np.eye(4), repr=False
    )
    znear: float = 0.05
    zfar: float = 1000.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.cx is None:
            self.cx = self.width / 2.0
        if self.cy is None:
            self.cy = self.height / 2.0
        self.world_to_camera = np.asarray(self.world_to_camera, dtype=np.float64)
        if self.world_to_camera.shape != (4, 4):
            raise ValueError("world_to_camera must be a 4x4 matrix")
        if not 0 < self.znear < self.zfar:
            raise ValueError("require 0 < znear < zfar")

    def key(self) -> tuple:
        """Hashable identity of the view, built from every dataclass field.

        Arrays (the pose) enter as their raw bytes.  A field added to the
        class lands in the key with no further edit, so two cameras share a
        key exactly when every field is equal.
        """
        return tuple([
            value.tobytes() if isinstance(value, np.ndarray) else value
            for value in map(self.__getattribute__, _field_names(type(self)))
        ])

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def resolution(self) -> Tuple[int, int]:
        """Image resolution as ``(width, height)``."""
        return self.width, self.height

    @property
    def camera_center(self) -> np.ndarray:
        """Camera position in world space."""
        rotation = self.world_to_camera[:3, :3]
        translation = self.world_to_camera[:3, 3]
        return -rotation.T @ translation

    @property
    def tan_half_fov(self) -> Tuple[float, float]:
        """Tangents of the half field-of-view along x and y.

        The frustum of a camera with an off-centre principal point is
        asymmetric: along x it spans ``[-cx / fx, (width - cx) / fx]`` in
        ``x/z``.  Frustum culling and the EWA Jacobian clamp use a symmetric
        bound, so the wider of the two sides (``max(cx, width - cx) / fx``)
        is returned; anything narrower would cull Gaussians that project
        inside the image.  For a centred principal point this reduces to the
        familiar ``width / (2 fx)``.
        """
        tan_x = max(self.cx, self.width - self.cx) / self.fx
        tan_y = max(self.cy, self.height - self.cy) / self.fy
        return tan_x, tan_y

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def to_camera_space(self, points: np.ndarray) -> np.ndarray:
        """Transform ``(N, 3)`` world-space points into camera space."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[np.newaxis, :]
        rotation = self.world_to_camera[:3, :3]
        translation = self.world_to_camera[:3, 3]
        return points @ rotation.T + translation

    def project(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Project world-space points to pixel coordinates.

        Returns
        -------
        pixels:
            ``(N, 2)`` pixel coordinates.
        depths:
            ``(N,)`` camera-space depths (positive in front of the camera).
        """
        cam = self.to_camera_space(points)
        depths = cam[:, 2]
        safe_z = np.where(np.abs(depths) < 1e-12, 1e-12, depths)
        px = self.fx * cam[:, 0] / safe_z + self.cx
        py = self.fy * cam[:, 1] / safe_z + self.cy
        return np.stack([px, py], axis=1), depths

    def projection_matrix(self) -> np.ndarray:
        """Return the OpenGL-style 4x4 perspective projection matrix.

        Uses the symmetric on-axis frustum ``width / (2 fx)`` — the matrix
        describes the image extent, not the conservative culling bound of
        :attr:`tan_half_fov` (the two coincide for centred principal points).
        """
        znear, zfar = self.znear, self.zfar
        tan_x = self.width / (2.0 * self.fx)
        tan_y = self.height / (2.0 * self.fy)
        top = tan_y * znear
        right = tan_x * znear

        matrix = np.zeros((4, 4), dtype=np.float64)
        matrix[0, 0] = znear / right
        matrix[1, 1] = znear / top
        matrix[2, 2] = (zfar + znear) / (zfar - znear)
        matrix[2, 3] = -2.0 * zfar * znear / (zfar - znear)
        matrix[3, 2] = 1.0
        return matrix

    def full_projection(self) -> np.ndarray:
        """World-to-clip transform (projection @ world_to_camera)."""
        return self.projection_matrix() @ self.world_to_camera


def look_at(
    eye,
    target,
    up=(0.0, 1.0, 0.0),
) -> np.ndarray:
    """Build a world-to-camera matrix for a camera at ``eye`` looking at ``target``.

    The returned matrix follows the +z-forward convention used by
    :class:`Camera`.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)

    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target must not coincide")
    forward = forward / norm

    right = np.cross(forward, up)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-12:
        raise ValueError("up vector is parallel to the viewing direction")
    right = right / right_norm
    true_up = np.cross(forward, right)

    rotation = np.stack([right, true_up, forward], axis=0)
    matrix = np.eye(4)
    matrix[:3, :3] = rotation
    matrix[:3, 3] = -rotation @ eye
    return matrix


@cache
def _field_names(cls: type) -> Tuple[str, ...]:
    """Dataclass field names of ``cls``, computed once per class."""
    return tuple(f.name for f in fields(cls))
