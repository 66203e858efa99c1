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

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .featuregrid import FeatureGrid
from .geometry import _BEV
from .pooling import PoolConfig, pool_bev_batch

CHECKPOINT_MAGIC = b"BOXEBMCK"
CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<8s2I")  # magic, version, tensor count


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


def _tensor_table(dims: EnergyNetDims) -> list:
    """(name, shape) of every tensor in checkpoint order: each group's
    layers in turn, W (out, in) before b (out,)."""
    e = dims.enc_dim
    h1, h2 = dims.head_dims
    groups = {"enc_cz": [(e, 1), (e, e)], "enc_h": [(e, 1), (e, e)],
              "head": [(h1, dims.input_len), (h2, h1), (1, h2)]}
    return [(f"{group}.{i}.{kind}", shape)
            for group, layers in groups.items() for i, (n_out, n_in) in enumerate(layers)
            for kind, shape in (("W", (n_out, n_in)), ("b", (n_out,)))]


@dataclass
class EnergyNetParams:
    """All parameters as one float64 `vector` in checkpoint order. Each
    layer's W and b are reshaped views into it, so writing a layer writes
    the vector."""

    dims: EnergyNetDims
    vector: np.ndarray
    enc_cz: list = field(init=False, default_factory=list)
    enc_h: list = field(init=False, default_factory=list)
    head: list = field(init=False, default_factory=list)

    def __post_init__(self):
        self.vector = np.ascontiguousarray(self.vector, dtype=float)
        size = sum(math.prod(shape) for _, shape in _tensor_table(self.dims))
        if self.vector.shape != (size,):
            raise ConfigError(f"parameter vector has shape {self.vector.shape}, expected ({size},)")
        tensors = self.named_tensors()
        for (name, w), (_, b) in zip(tensors, tensors):  # W, b pairs
            getattr(self, name.split(".")[0]).append(DenseLayer(W=w, b=b))

    def param_offsets(self) -> dict:
        """name -> (start, size) into `vector`."""
        out = {}
        pos = 0
        for name, shape in _tensor_table(self.dims):
            out[name] = (pos, math.prod(shape))
            pos += out[name][1]
        return out

    def named_tensors(self):
        """(name, view into `vector`) pairs in checkpoint order."""
        shapes = dict(_tensor_table(self.dims))
        for name, (start, size) in self.param_offsets().items():
            yield name, self.vector[start:start + size].reshape(shapes[name])

    def to_vector(self) -> np.ndarray:
        return self.vector.copy()

    def from_vector(self, vec: np.ndarray) -> "EnergyNetParams":
        """Same dims, parameters copied from `vec`."""
        return EnergyNetParams(self.dims, np.array(vec, dtype=float))

    @property
    def n_params(self) -> int:
        return self.vector.size


def init_params(seed: int, dims: EnergyNetDims) -> EnergyNetParams:
    """He fan-in normal weights, zero biases, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    return EnergyNetParams(dims, np.concatenate([
        rng.normal(0.0, np.sqrt(2.0 / shape[1]), size=shape).ravel() if name.endswith(".W")
        else np.zeros(shape) for name, shape in _tensor_table(dims)]))


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
    """x: (B,) scalars -> (output (B, e), record): the two ReLU layers'
    input, pre- and post-activations, as `_backward` reads them."""
    z1 = x[:, None] * layers[0].W[:, 0][None, :] + layers[0].b[None, :]
    _check_finite(z1, f"{where}.0")
    a1 = np.maximum(z1, 0.0)
    z2 = _matmul(a1, layers[1].W.T, per_row) + layers[1].b[None, :]
    _check_finite(z2, f"{where}.1")
    return np.maximum(z2, 0.0), dict(x=x, z1=z1, a1=a1, z2=z2)


def _validate(params: EnergyNetParams, grid: FeatureGrid, cfg: PoolConfig):
    expect = cfg.feature_len(grid.channels)
    if params.dims.feat_len != expect:
        raise ConfigError(
            f"network expects pooled length {params.dims.feat_len}, "
            f"pool config x grid gives {expect}"
        )


def forward_batch(params: EnergyNetParams, grid: FeatureGrid, boxes: np.ndarray, cfg: PoolConfig,
                  with_box_jac: bool = False, per_row: bool = False):
    """Energies for box rows (B, 7). Returns (values (B,), cache dict): the
    activations of each layer group ("head", "enc_cz", "enc_h"), the
    pooling Jacobians and `per_row`.

    With `per_row`, every row's value equals its one-row call bit for bit,
    whatever the other rows are; without it, rows of larger batches may
    differ from their one-row values in the last bits."""
    _validate(params, grid, cfg)
    boxes = np.asarray(boxes, dtype=float)
    pooled, pooled_jac = pool_bev_batch(grid, boxes[:, _BEV], cfg, with_jac=with_box_jac)
    enc_cz, rec_cz = _enc_forward(params.enc_cz, boxes[:, 2], "enc_cz", per_row)
    enc_h, rec_h = _enc_forward(params.enc_h, boxes[:, 3], "enc_h", per_row)
    h5 = np.concatenate([pooled, enc_cz, enc_h], axis=1)
    w1, w2, w3 = params.head
    z1 = _matmul(h5, w1.W.T, per_row) + w1.b[None, :]
    _check_finite(z1, "head.0")
    a1 = np.maximum(z1, 0.0)
    z2 = _matmul(a1, w2.W.T, per_row) + w2.b[None, :]
    _check_finite(z2, "head.1")
    a2 = np.maximum(z2, 0.0)
    values = _matmul(a2, w3.W[0], per_row) + w3.b[0]
    _check_finite(values, "head.2")
    cache = dict(head=dict(x=h5, z1=z1, a1=a1, z2=z2, a2=a2), enc_cz=rec_cz, enc_h=rec_h,
                 pooled_jac=pooled_jac, per_row=per_row)
    return values, cache


def _backward(params: EnergyNetParams, cache: dict, delta: np.ndarray, grads=None):
    """Backprop per-row output weights delta (B,) through the head and both
    encoders. Returns the gradients w.r.t. the pooled vector (B, feat_len),
    cz (B,) and h (B,). Given `grads` (a gradient `EnergyNetParams`), also
    writes every layer's parameter gradient there; the pooled gradient,
    which leads to no parameter, is then not formed and is None."""
    per_row = cache["per_row"]
    n4 = params.dims.feat_len
    e = params.dims.enc_dim
    w1, w2, w3 = params.head
    head = cache["head"]
    da2 = delta[:, None] * w3.W[0][None, :]
    dz2 = da2 * (head["z2"] > 0.0)
    da1 = _matmul(dz2, w2.W, per_row)
    dz1 = da1 * (head["z1"] > 0.0)
    if grads is None:
        dh5 = _matmul(dz1, w1.W, per_row)
        dpooled, denc = dh5[:, :n4], dh5[:, n4:]
    else:
        dpooled, denc = None, _matmul(dz1, w1.W[:, n4:], per_row)
        g1, g2, g3 = grads.head
        g3.W[0] = delta @ head["a2"]
        g3.b[0] = delta.sum()
        g2.W[:] = dz2.T @ head["a1"]
        g2.b[:] = dz2.sum(axis=0)
        g1.W[:] = dz1.T @ head["x"]
        g1.b[:] = dz1.sum(axis=0)
    dx = []
    for name, dout in (("enc_cz", denc[:, :e]), ("enc_h", denc[:, e:])):
        layers, rec = getattr(params, name), cache[name]
        dz2 = dout * (rec["z2"] > 0.0)
        da1 = _matmul(dz2, layers[1].W, per_row)
        dz1 = da1 * (rec["z1"] > 0.0)
        dx.append(_matmul(dz1, layers[0].W[:, 0], per_row))
        if grads is not None:
            g1, g2 = getattr(grads, name)
            g2.W[:] = dz2.T @ rec["a1"]
            g2.b[:] = dz2.sum(axis=0)
            g1.W[:, 0] = (dz1 * rec["x"][:, None]).sum(axis=0)
            g1.b[:] = dz1.sum(axis=0)
    return dpooled, dx[0], dx[1]


def box_grad_batch(params: EnergyNetParams, grid: FeatureGrid, boxes: np.ndarray, cfg: PoolConfig,
                   per_row: bool = False):
    """Energies (B,) and gradients (B, 7) w.r.t. each box's coordinates.

    The energies equal `forward_batch`'s bit for bit; `per_row` is as there
    and covers the gradients too."""
    values, cache = forward_batch(params, grid, boxes, cfg, with_box_jac=True, per_row=per_row)
    dpooled, dcz, dh = _backward(params, cache, np.ones(len(values)))
    grad = np.zeros((len(values), 7))
    # pooled part -> (cx, cy, w, l, yaw)
    grad[:, _BEV] = np.einsum("bn,bnp->bp", dpooled, cache["pooled_jac"])
    grad[:, 2] = dcz
    grad[:, 3] = dh
    _check_finite(grad, "box gradient")
    return values, grad


def weighted_param_grad(params: EnergyNetParams, cache: dict, coeffs: np.ndarray) -> np.ndarray:
    """sum_b coeffs[b] * d f(box_b) / d theta, flat in checkpoint order."""
    grad = EnergyNetParams(params.dims, np.zeros(params.n_params))
    _backward(params, cache, np.asarray(coeffs, dtype=float), grads=grad)
    return grad.vector


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
    """Versioned binary checkpoint: header, (name, shape) tensor table, then
    the parameter vector as little-endian float64."""
    table = _tensor_table(params.dims)
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(table)))
        for name, shape in table:
            enc = name.encode()
            f.write(struct.pack(f"<H{len(enc)}sB{len(shape)}I", len(enc), enc, len(shape), *shape))
        f.write(params.vector.astype("<f8").tobytes())


def load_checkpoint(path) -> EnergyNetParams:
    """Inverse of `save_checkpoint`. The tensor table must be exactly the one
    its layer sizes imply; any other file ends in ConfigError."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ConfigError(f"not a checkpoint file: {path}")
    try:  # a file cut short ends in one of these
        _, version, n_tensors = _CHECKPOINT_HEADER.unpack_from(raw)
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        pos = _CHECKPOINT_HEADER.size
        table = []
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            name = raw[pos + 2:pos + 2 + name_len].decode()
            pos += 2 + name_len
            (ndim,) = struct.unpack_from("<B", raw, pos)
            table.append((name, struct.unpack_from(f"<{ndim}I", raw, pos + 1)))
            pos += 1 + 4 * ndim
        shapes = dict(table)
        (enc_dim, _), (h1, in_len), (h2, _) = shapes["enc_cz.0.W"], shapes["head.0.W"], shapes["head.1.W"]
    except (struct.error, ValueError, KeyError) as exc:
        raise ConfigError(f"truncated or corrupt checkpoint {path}: {exc}") from None
    dims = EnergyNetDims(feat_len=in_len - 2 * enc_dim, enc_dim=enc_dim, head_dims=(h1, h2))
    if table != _tensor_table(dims):
        raise ConfigError(f"checkpoint {path}: tensor table {table} is not the layout of {dims}")
    try:  # the data section must be exactly the parameter vector
        return EnergyNetParams(dims, np.frombuffer(raw, dtype="<f8", offset=pos).astype(float))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"truncated or corrupt checkpoint {path}: {exc}") from None
