"""Scalar energy network over (feature grid, box) pairs, with hand-rolled backprop.

Architecture: the BEV-pooled vector is concatenated with two small encoders
(two dense layers each, ReLU after both) applied to the box center height
cz and the box height h; the concatenation passes through a three-layer
dense head, ReLU after the first two layers, linear scalar output.

All math is float64 numpy. Gradients w.r.t. the 7 box coordinates
(cx, cy, cz, h, w, l, yaw) and w.r.t. all parameters are computed
analytically by one batched core, which serves training, refinement and
the heading scan.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .featuregrid import FeatureGrid
from .pooling import PoolConfig, pool_bev_batch

CHECKPOINT_MAGIC = b"BOXEBMCK"
CHECKPOINT_VERSION = 1

# Column order of box coordinates everywhere in this module.
BOX_PARAMS = ("cx", "cy", "cz", "h", "w", "l", "yaw")
_BEV_COLS = np.array([0, 1, 4, 5, 6])  # cx, cy, w, l, yaw columns of a box row


@dataclass(frozen=True)
class EnergyNetDims:
    """Layer sizing. feat_len must equal grid_w * grid_l * channels."""

    feat_len: int
    enc_dim: int
    head_dims: tuple[int, int]

    @property
    def input_len(self) -> int:
        return self.feat_len + 2 * self.enc_dim


@dataclass
class DenseLayer:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


@dataclass
class EnergyNetParams:
    dims: EnergyNetDims
    enc_cz: list[DenseLayer]
    enc_h: list[DenseLayer]
    head: list[DenseLayer]

    def named_tensors(self):
        """(name, array) pairs in fixed declaration order (checkpoint layout)."""
        for group, layers in (("enc_cz", self.enc_cz), ("enc_h", self.enc_h), ("head", self.head)):
            for i, layer in enumerate(layers):
                yield f"{group}.{i}.W", layer.W
                yield f"{group}.{i}.b", layer.b

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for _, a in self.named_tensors()])

    def from_vector(self, vec: np.ndarray) -> "EnergyNetParams":
        pos = 0

        def take(like: np.ndarray) -> np.ndarray:
            nonlocal pos
            out = np.array(vec[pos:pos + like.size], dtype=float).reshape(like.shape)
            pos += like.size
            return out

        # in `named_tensors` order: groups, layers, then W before b
        groups = [[DenseLayer(W=take(layer.W), b=take(layer.b)) for layer in layers]
                  for layers in (self.enc_cz, self.enc_h, self.head)]
        if pos != vec.size:
            raise ConfigError(f"parameter vector has {vec.size} entries, expected {pos}")
        return EnergyNetParams(self.dims, *groups)

    @property
    def n_params(self) -> int:
        return sum(a.size for _, a in self.named_tensors())

    def param_offsets(self) -> dict:
        """name -> (start, size) into the flat parameter vector."""
        out = {}
        pos = 0
        for name, arr in self.named_tensors():
            out[name] = (pos, arr.size)
            pos += arr.size
        return out


def _layer_shapes(dims: EnergyNetDims) -> dict:
    """(out, in) of each dense layer, per group, in checkpoint order."""
    e = dims.enc_dim
    h1, h2 = dims.head_dims
    return {"enc_cz": [(e, 1), (e, e)], "enc_h": [(e, 1), (e, e)],
            "head": [(h1, dims.input_len), (h2, h1), (1, h2)]}


def init_params(seed: int, dims: EnergyNetDims) -> EnergyNetParams:
    """He fan-in normal weights, zero biases, deterministic in the seed."""
    rng = np.random.default_rng(seed)

    def dense(n_out, n_in):
        w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))
        return DenseLayer(W=w, b=np.zeros(n_out))

    return EnergyNetParams(dims, *([dense(*shape) for shape in shapes]
                                   for shapes in _layer_shapes(dims).values()))


def _check_finite(arr: np.ndarray, where: str):
    if not np.isfinite(arr).all():
        raise NumericError("non-finite activation", where=where)


def _matmul(x: np.ndarray, w: np.ndarray, per_row: bool) -> np.ndarray:
    """x (B, K) @ w (K, N) or (K,). With `per_row`, each row is its own
    one-row product, so a row's result does not depend on the other rows of
    the batch (a multi-row BLAS product may round a row differently); the
    default one product is much faster on large batches."""
    if per_row:
        return (x[:, None, :] @ w)[:, 0]
    return x @ w


def _enc_forward(layers, x: np.ndarray, where: str, per_row: bool):
    """x: (B,) scalars -> pre/post activations of the two ReLU layers."""
    z1 = x[:, None] * layers[0].W[:, 0][None, :] + layers[0].b[None, :]
    _check_finite(z1, f"{where}.0")
    a1 = np.maximum(z1, 0.0)
    z2 = _matmul(a1, layers[1].W.T, per_row) + layers[1].b[None, :]
    _check_finite(z2, f"{where}.1")
    return z1, a1, z2, np.maximum(z2, 0.0)


def _validate(params: EnergyNetParams, grid: FeatureGrid, cfg: PoolConfig):
    expect = cfg.feature_len(grid.channels)
    if params.dims.feat_len != expect:
        raise ConfigError(
            f"network expects pooled length {params.dims.feat_len}, "
            f"pool config x grid gives {expect}"
        )


def forward_batch(params: EnergyNetParams, grid: FeatureGrid, boxes: np.ndarray, cfg: PoolConfig,
                  with_box_jac: bool = False, per_row: bool = False):
    """Energies for box rows (B, 7). Returns (values (B,), cache dict).

    With `per_row`, every row's value equals its one-row call bit for bit,
    whatever the other rows are; without it, rows of larger batches may
    differ from their one-row values in the last bits."""
    _validate(params, grid, cfg)
    boxes = np.asarray(boxes, dtype=float)
    pooled, pooled_jac = pool_bev_batch(grid, boxes[:, _BEV_COLS], cfg, with_jac=with_box_jac)
    cz1, ca1, cz2, ca2 = _enc_forward(params.enc_cz, boxes[:, 2], "enc_cz", per_row)
    hz1, ha1, hz2, ha2 = _enc_forward(params.enc_h, boxes[:, 3], "enc_h", per_row)
    h5 = np.concatenate([pooled, ca2, ha2], axis=1)
    w1, w2, w3 = params.head
    z1 = _matmul(h5, w1.W.T, per_row) + w1.b[None, :]
    _check_finite(z1, "head.0")
    a1 = np.maximum(z1, 0.0)
    z2 = _matmul(a1, w2.W.T, per_row) + w2.b[None, :]
    _check_finite(z2, "head.1")
    a2 = np.maximum(z2, 0.0)
    values = _matmul(a2, w3.W[0], per_row) + w3.b[0]
    _check_finite(values, "head.2")
    cache = dict(
        boxes=boxes, pooled=pooled, pooled_jac=pooled_jac, h5=h5,
        cz1=cz1, ca1=ca1, cz2=cz2, hz1=hz1, ha1=ha1, hz2=hz2,
        z1=z1, a1=a1, z2=z2, a2=a2,
    )
    return values, cache


def _head_backward(params, cache, delta: np.ndarray, first_input: int = 0, with_params: bool = True,
                   per_row: bool = False):
    """Backprop the head with per-row output weights delta (B,). Returns
    (dh5 (B, n5 - first_input), head param grads in layer order, or None
    without `with_params`): dh5 is the gradient w.r.t. the head inputs
    from column `first_input` on."""
    w1, w2, w3 = params.head
    a1, a2, z1, z2, h5 = cache["a1"], cache["a2"], cache["z1"], cache["z2"], cache["h5"]
    d3 = delta  # (B,)
    da2 = d3[:, None] * w3.W[0][None, :]
    dz2 = da2 * (z2 > 0.0)
    da1 = _matmul(dz2, w2.W, per_row)
    dz1 = da1 * (z1 > 0.0)
    dh5 = _matmul(dz1, w1.W[:, first_input:], per_row)
    if not with_params:
        return dh5, None
    dW3 = (d3 @ a2)[None, :]
    db3 = np.array([d3.sum()])
    dW2 = dz2.T @ a1
    db2 = dz2.sum(axis=0)
    dW1 = dz1.T @ h5
    db1 = dz1.sum(axis=0)
    return dh5, [(dW1, db1), (dW2, db2), (dW3, db3)]


def _enc_backward(layers, cache_z1, cache_a1, cache_z2, x: np.ndarray, dout: np.ndarray,
                  with_params: bool = True, per_row: bool = False):
    """Backprop one scalar encoder. Returns (dx (B,), param grads or None)."""
    dz2 = dout * (cache_z2 > 0.0)
    da1 = _matmul(dz2, layers[1].W, per_row)
    dz1 = da1 * (cache_z1 > 0.0)
    dx = _matmul(dz1, layers[0].W[:, 0], per_row)
    if not with_params:
        return dx, None
    dW2 = dz2.T @ cache_a1
    db2 = dz2.sum(axis=0)
    dW1 = (dz1 * x[:, None]).sum(axis=0)[:, None]
    db1 = dz1.sum(axis=0)
    return dx, [(dW1, db1), (dW2, db2)]


def box_grad_batch(params: EnergyNetParams, grid: FeatureGrid, boxes: np.ndarray, cfg: PoolConfig,
                   per_row: bool = False):
    """Energies (B,) and gradients (B, 7) w.r.t. each box's coordinates.

    The energies equal `forward_batch`'s bit for bit; `per_row` is as there
    and covers the gradients too."""
    values, cache = forward_batch(params, grid, boxes, cfg, with_box_jac=True, per_row=per_row)
    b = len(values)
    dh5, _ = _head_backward(params, cache, np.ones(b), with_params=False, per_row=per_row)
    n4 = params.dims.feat_len
    e = params.dims.enc_dim
    grad = np.zeros((b, 7))
    # pooled part -> (cx, cy, w, l, yaw)
    bev = np.einsum("bn,bnp->bp", dh5[:, :n4], cache["pooled_jac"])
    grad[:, _BEV_COLS] = bev
    grad[:, 2], _ = _enc_backward(params.enc_cz, cache["cz1"], cache["ca1"], cache["cz2"],
                                  cache["boxes"][:, 2], dh5[:, n4:n4 + e], with_params=False,
                                  per_row=per_row)
    grad[:, 3], _ = _enc_backward(params.enc_h, cache["hz1"], cache["ha1"], cache["hz2"],
                                  cache["boxes"][:, 3], dh5[:, n4 + e:], with_params=False,
                                  per_row=per_row)
    _check_finite(grad, "box gradient")
    return values, grad


def weighted_param_grad(params: EnergyNetParams, cache: dict, coeffs: np.ndarray) -> np.ndarray:
    """sum_b coeffs[b] * d f(box_b) / d theta, flat in checkpoint order."""
    e = params.dims.enc_dim
    # only the encoder inputs of the head lead to parameters
    denc, head_grads = _head_backward(params, cache, np.asarray(coeffs, dtype=float),
                                      first_input=params.dims.feat_len)
    _, cz_grads = _enc_backward(params.enc_cz, cache["cz1"], cache["ca1"], cache["cz2"],
                                cache["boxes"][:, 2], denc[:, :e])
    _, h_grads = _enc_backward(params.enc_h, cache["hz1"], cache["ha1"], cache["hz2"],
                               cache["boxes"][:, 3], denc[:, e:])
    parts = []
    for dw, db in (*cz_grads, *h_grads, *head_grads):
        parts.append(dw.ravel())
        parts.append(db.ravel())
    return np.concatenate(parts)


def heading_scan(params: EnergyNetParams, grid: FeatureGrid, box_row: np.ndarray, cfg: PoolConfig,
                 points: int):
    """Energies of a box row (7,) turned by `points` evenly spaced angles
    from 0 to 2 pi, both included. Returns (deltas (points,), values (points,))."""
    deltas = np.linspace(0.0, 2.0 * np.pi, points)
    boxes = np.tile(box_row, (points, 1))
    boxes[:, 6] += deltas
    values, _ = forward_batch(params, grid, boxes, cfg)
    return deltas, values


def save_checkpoint(params: EnergyNetParams, path):
    """Versioned binary checkpoint: header, named dimension table, then
    the tensors as little-endian float64 in declaration order."""
    tensors = list(params.named_tensors())
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name, arr in tensors:
            enc = name.encode()
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for _, arr in tensors:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> EnergyNetParams:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"not a checkpoint file: {path}")
    try:  # a file cut short ends in one of these
        version, n_tensors = struct.unpack_from("<II", raw, 8)
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        pos = 16
        table = []
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos:pos + name_len].decode()
            pos += name_len
            (ndim,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, pos)
            pos += 4 * ndim
            table.append((name, shape))
        arrays = {}
        for name, shape in table:
            count = int(np.prod(shape))
            arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(shape).copy()
            pos += 8 * count
    except (struct.error, ValueError) as exc:
        raise ConfigError(f"truncated or corrupt checkpoint {path}: {exc}") from None
    try:
        enc_dim = arrays["enc_cz.0.W"].shape[0]
        in_len = arrays["head.0.W"].shape[1]
        dims = EnergyNetDims(
            feat_len=in_len - 2 * enc_dim,
            enc_dim=enc_dim,
            head_dims=(arrays["head.0.W"].shape[0], arrays["head.1.W"].shape[0]),
        )
        groups = []
        for group, shapes in _layer_shapes(dims).items():
            for i, (n_out, n_in) in enumerate(shapes):
                for name, shape in ((f"{group}.{i}.W", (n_out, n_in)), (f"{group}.{i}.b", (n_out,))):
                    if arrays[name].shape != shape:
                        raise ConfigError(f"tensor {name} has shape {arrays[name].shape}, expected {shape}")
            groups.append([DenseLayer(W=arrays[f"{group}.{i}.W"], b=arrays[f"{group}.{i}.b"])
                           for i in range(len(shapes))])
    except KeyError as exc:
        raise ConfigError(f"checkpoint missing tensor {exc}") from exc
    return EnergyNetParams(dims, *groups)
