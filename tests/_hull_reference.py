"""Image hulls with corners from signed axis products, kept as a test reference.

This is the corner build that ``geom.image_hulls`` replaced: each of the 8
corners is the center plus the three box axes, each scaled by its
``_CORNER_SIGNS`` entry of +-0.5. ``image_hulls`` now sums half axes
instead and must match this bit for bit; the near-plane clipping and the
extremes below are the same as there.
"""

import numpy as np

from autobox3d.geom import _BOX_EDGES, _CORNER_SIGNS


def sign_product_hulls(thetas: np.ndarray, cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """((S, 4) rects, (S,) ok) of (S, 7) ``thetas`` under (15, 1) or (15, S)
    ``camera_columns``, as ``image_hulls`` defines them."""
    a0, a1, a2, a3 = cam[:12].reshape(4, 3, -1)
    w_near, size = cam[12], cam[13:]
    cos, sin = np.cos(thetas[:, 6]), np.sin(thetas[:, 6])
    center = a0 * thetas[:, 0] + a1 * thetas[:, 1] + a2 * thetas[:, 2] + a3
    axis_l = (a0 * cos + a1 * sin) * thetas[:, 3]
    axis_w = (a1 * cos - a0 * sin) * thetas[:, 4]
    axis_h = a2 * thetas[:, 5]
    sign_l, sign_w, sign_h = _CORNER_SIGNS.T[:, :, None, None]
    corners = sign_l * axis_l
    corners += sign_w * axis_w
    corners += sign_h * axis_h
    corners += center
    w = corners[:, 2]
    front = w >= w_near
    cut = ~front.all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = corners[:, :2] / w[:, None]
        lo, hi = uv.min(axis=0), uv.max(axis=0)
    if cut.any():
        a, b = corners[..., cut][_BOX_EDGES]
        w_cut = np.broadcast_to(w_near, cut.shape)[cut]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (a[:, 2:] - w_cut) / (a[:, 2:] - b[:, 2:])
            cuts = (a[:, :2] + t * (b[:, :2] - a[:, :2])) / w_cut
        uv = np.concatenate([uv[..., cut], cuts])
        f = front[:, cut]
        keep = np.concatenate([f, f[_BOX_EDGES[0]] != f[_BOX_EDGES[1]]])[:, None]
        lo[:, cut] = np.where(keep, uv, np.inf).min(axis=0)
        hi[:, cut] = np.where(keep, uv, -np.inf).max(axis=0)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, size)
    ok = (lo < hi).all(axis=0)
    return np.where(ok, np.concatenate([lo, hi]), 0.0).T, ok
