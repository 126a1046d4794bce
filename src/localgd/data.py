"""Dataset model: folding, scaling, synthetic and MNIST sources, max margin.

A prepared dataset stores folded points z = y*x (all labels become +1), jointly
scaled so every norm is at most 1. Randomness is confined to
``partition_heterogeneous`` and always flows through numpy's PCG64 generator
seeded from the partition spec, so identical specs give byte-identical
datasets.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import IdxFormatError, SeparabilityError, ConvergenceError

__all__ = [
    "RawSample",
    "FederatedDataset",
    "SyntheticSpec",
    "PartitionSpec",
    "prepare",
    "gen_synthetic",
    "load_mnist_idx",
    "partition_heterogeneous",
    "compute_margin",
    "save_dataset",
    "write_json",
    "read_json",
    "load_dataset",
]

DATASET_FORMAT = "localgd-dataset"
DATASET_VERSION = 1


@dataclass(frozen=True)
class RawSample:
    """One unprepared sample: a feature vector and an integer label.

    Training inputs carry labels in {-1, +1}; MNIST loading keeps digits 0-9
    so partitioning can sort by class before binarizing.
    """

    features: np.ndarray
    label: int


@dataclass
class FederatedDataset:
    """Folded, norm-scaled client datasets plus an optional cached margin.

    clients[m] is an (n_m, d) array of folded points. ``margin`` caches the
    (gamma, w_star) pair once compute_margin has run; ``file_fingerprint`` holds the
    fingerprint load_dataset verified (or computed), so a loaded file is hashed once.
    """

    clients: list[np.ndarray]
    d: int
    margin: tuple[float, np.ndarray] | None = field(default=None)
    file_fingerprint: str | None = None

    @property
    def M(self) -> int:
        return len(self.clients)

    @property
    def client_sizes(self) -> list[int]:
        return [Z.shape[0] for Z in self.clients]

    def all_points(self) -> np.ndarray:
        return np.concatenate(self.clients, axis=0)

    @property
    def one_sample_per_client(self) -> bool:
        return all(Z.shape[0] == 1 for Z in self.clients)

    def sample_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Norms and unit directions of the clients' single, nonzero samples."""
        if not self.one_sample_per_client:
            raise ValueError("margin-space runs need exactly one sample per client")
        points = np.array([Z[0] for Z in self.clients])
        gammas = np.linalg.norm(points, axis=1)
        if np.any(gammas == 0):
            raise ValueError("margin-space runs need nonzero samples")
        return gammas, points / gammas[:, None]

    def fingerprint(self) -> str:
        """SHA-256 of the exact client payload (order and bits included)."""
        h = hashlib.sha256()
        h.update(struct.pack(">II", self.M, self.d))
        for Z in self.clients:
            h.update(struct.pack(">I", Z.shape[0]))
            h.update(np.ascontiguousarray(Z, dtype=np.float64).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-client, one-sample geometry: direction spread delta, norm ratio g. Its margin is
    at most min(1/g, 2*delta/((1+g)*sqrt(1+delta^2))), the second client's norm and that of
    the clients' convex combination on the symmetry axis; below 1e-6 the solver gives up, so
    such a geometry is refused at once."""

    delta: float
    g: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 1 <= self.g < math.inf:
            raise ValueError(f"g must be finite and >= 1, got {self.g}")
        bound = min(1.0 / self.g, 2.0 * (self.delta / math.hypot(1.0, self.delta)) / (1.0 + self.g))
        if bound < 1e-6:
            raise ValueError(f"delta = {self.delta} and g = {self.g} give a margin of at most "
                             f"{bound:.3g}, below the 1e-6 the margin solver can certify")


@dataclass(frozen=True)
class PartitionSpec:
    """Heterogeneous split of a labeled pool across M clients.

    similarity_s is the fraction of each client's data drawn uniformly; the
    rest comes from a label-sorted order. seed drives a PCG64 stream.
    """

    n_total: int
    M: int
    n_per_client: int
    similarity_s: float
    seed: int

    def __post_init__(self):
        if self.M * self.n_per_client != self.n_total:
            raise ValueError(
                f"M * n_per_client = {self.M * self.n_per_client} != n_total = {self.n_total}"
            )
        if not 0.0 <= self.similarity_s <= 1.0:
            raise ValueError(f"similarity_s must lie in [0, 1], got {self.similarity_s}")


def _max_norm(clients):
    return max(float(np.max(np.linalg.norm(Z, axis=1))) for Z in clients)


def prepare(raw: list[tuple[RawSample, int]]) -> FederatedDataset:
    """Fold labels into the features and scale all points by the max norm.

    Every (sample, client_id) pair becomes z = label * features assigned to its
    client; afterwards all z are divided by the largest norm so the maximum is
    at most 1. Client ids must cover 0..M-1 with no empty client.
    """
    if not raw:
        raise ValueError("empty input")
    ids = sorted({cid for _, cid in raw})
    M = ids[-1] + 1
    if ids[0] < 0:
        raise ValueError(f"negative client id {ids[0]}")
    if len(ids) != M:
        missing = sorted(set(range(M)) - set(ids))
        raise ValueError(f"empty client(s): {missing}")
    d = len(np.asarray(raw[0][0].features))
    buckets: list[list[np.ndarray]] = [[] for _ in range(M)]
    for sample, cid in raw:
        x = np.asarray(sample.features, dtype=np.float64)
        if x.shape != (d,):
            raise ValueError(f"inconsistent dimension: {x.shape} vs ({d},)")
        if sample.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {sample.label}")
        buckets[cid].append(sample.label * x)
    clients = [np.array(b) for b in buckets]
    max_norm = _max_norm(clients)
    if max_norm == 0.0:
        raise ValueError("all points are zero; cannot scale")
    clients = [Z / max_norm for Z in clients]
    # rounding can leave the longest row's computed norm one ulp above 1
    while (max_norm := _max_norm(clients)) > 1.0:
        clients = [Z / max_norm for Z in clients]
    return FederatedDataset(clients=clients, d=d)


def gen_synthetic(spec: SyntheticSpec) -> FederatedDataset:
    """Two clients, one 2-d point each, with controlled angle and norms.

    Client directions are (1, delta)/s and (-1, delta)/s with s = sqrt(1+d^2),
    norms 1 and 1/g; their inner product is (delta^2-1)/(delta^2+1).
    """
    try:
        s = math.sqrt(1.0 + spec.delta**2)
    except OverflowError:  # delta^2 past the float range, where s rounds to delta
        s = math.hypot(1.0, spec.delta)
    w1 = np.array([1.0 / s, spec.delta / s])
    w2 = np.array([-1.0 / s, spec.delta / s])
    x1 = 1.0 * w1
    x2 = (1.0 / spec.g) * w2
    raw = [(RawSample(x1, 1), 0), (RawSample(x2, 1), 1)]
    return prepare(raw)


def _read_exact(f, count, path, offset):
    buf = f.read(count)
    if len(buf) != count:
        raise IdxFormatError(
            f"{path}: truncated at offset {offset + len(buf)} (wanted {count} bytes)"
        )
    return buf


def load_mnist_idx(images_path, labels_path) -> list[RawSample]:
    """Read an IDX image/label file pair into samples with digit labels 0-9.

    Pixels are scaled to [0, 1] and flattened; the big-endian magic numbers
    (0x00000803 for images, 0x00000801 for labels) and record counts are
    verified, and malformed files raise IdxFormatError naming the byte offset.
    """
    with open(images_path, "rb") as f:
        header = _read_exact(f, 16, images_path, 0)
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != 0x00000803:
            raise IdxFormatError(
                f"{images_path}: bad magic 0x{magic:08x} at offset 0 (expected 0x00000803)"
            )
        body = _read_exact(f, count * rows * cols, images_path, 16)
        images = np.frombuffer(body, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        header = _read_exact(f, 8, labels_path, 0)
        magic, label_count = struct.unpack(">II", header)
        if magic != 0x00000801:
            raise IdxFormatError(
                f"{labels_path}: bad magic 0x{magic:08x} at offset 0 (expected 0x00000801)"
            )
        body = _read_exact(f, label_count, labels_path, 8)
        labels = np.frombuffer(body, dtype=np.uint8)
    if label_count != count:
        raise IdxFormatError(
            f"{labels_path}: {label_count} labels vs {count} images (offset 4)"
        )
    scaled = images.astype(np.float64) / 255.0
    return [RawSample(scaled[i], int(labels[i])) for i in range(count)]


def partition_heterogeneous(raw: list[RawSample], spec: PartitionSpec) -> FederatedDataset:
    """Label-skewed split of a digit-labeled pool, then binarize and prepare.

    n_total samples are drawn uniformly without replacement (seeded). A
    round(s * n_per_client) share of each client's data is allocated uniformly
    at random from that pool; the remainder is stable-sorted by digit and
    served to clients in index order as contiguous blocks. Labels then become
    +1 for even digits and -1 for odd ones, and the folded dataset is scaled.
    """
    if len(raw) < spec.n_total:
        raise ValueError(f"pool has {len(raw)} samples, need {spec.n_total}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    pool = rng.permutation(len(raw))[: spec.n_total]

    n_uniform = int(round(spec.similarity_s * spec.n_per_client))
    n_sorted = spec.n_per_client - n_uniform
    shuffled = rng.permutation(pool)
    uniform_part = shuffled[: spec.M * n_uniform]
    rest = shuffled[spec.M * n_uniform :]
    rest_labels = np.array([raw[i].label for i in rest])
    rest_sorted = rest[np.argsort(rest_labels, kind="stable")]

    assignments: list[tuple[RawSample, int]] = []
    for m in range(spec.M):
        chosen = np.concatenate(
            [
                rest_sorted[m * n_sorted : (m + 1) * n_sorted],
                uniform_part[m * n_uniform : (m + 1) * n_uniform],
            ]
        )
        for i in chosen:
            sample = raw[int(i)]
            y = 1 if sample.label % 2 == 0 else -1
            assignments.append((RawSample(sample.features, y), m))
    return prepare(assignments)


def _margin_solver(Z, tol, max_iter):
    """Accelerated projected gradient on the dual of min ||v||^2 s.t. Zv >= 1.

    Maintains alpha >= 0 with v = Z^T alpha. Certifies optimality by the
    sandwich gamma_lb = min_i <w, z_i> (w the unit direction of v) against
    gamma_ub = 1/sqrt(2 * dual objective); the gap is the reported residual.
    """
    N = Z.shape[0]

    def gram_mv(u):
        return Z @ (Z.T @ u)

    # Lipschitz constant of the dual gradient via power iteration on Z Z^T.
    v = np.ones(N) / math.sqrt(N)
    for _ in range(100):
        gv = gram_mv(v)
        nrm = np.linalg.norm(gv)
        if nrm == 0.0:
            raise SeparabilityError("the folded points sum to zero numerically (Z Z^T 1 = 0)")
        v = gv / nrm
    lip = float(v @ gram_mv(v)) * 1.01
    step = 1.0 / lip

    alpha = np.ones(N)
    y = alpha.copy()
    t_mom = 1.0
    best = (-math.inf, math.inf, None)  # lb, ub, w
    dual_prev = -math.inf
    for it in range(1, max_iter + 1):
        grad = gram_mv(y) - 1.0
        alpha_next = np.maximum(y - step * grad, 0.0)
        # momentum restart keeps the iteration monotone enough to certify
        if (y - alpha_next) @ (alpha_next - alpha) > 0.0:
            t_next = 1.0
            y = alpha_next.copy()
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            y = alpha_next + ((t_mom - 1.0) / t_next) * (alpha_next - alpha)
        alpha, t_mom = alpha_next, t_next

        if it % 25 == 0 or it == max_iter:
            vvec = Z.T @ alpha
            vnorm = float(np.linalg.norm(vvec))
            alpha_sum = float(alpha.sum())
            dual = alpha_sum - 0.5 * vnorm * vnorm
            if dual < dual_prev - 1e-12 * max(1.0, abs(dual_prev)):
                # the dual objective can only fall if the step overshoots the
                # curvature estimate; halve it, drop the momentum, and judge the
                # next checkpoint against this one: the best dual seen so far may
                # lie beyond what the restarted iteration reaches in 25 steps
                step *= 0.5
                y = alpha.copy()
                t_mom = 1.0
                dual_prev = dual
            dual_prev = max(dual_prev, dual)
            # the optimal multipliers sum to 1/gamma^2, so this cap only
            # fires when any margin would be below 1e-6
            if alpha_sum > 1e12:
                raise SeparabilityError(
                    "dual diverged; no separating direction with margin above 1e-6"
                )
            if vnorm > 0.0:
                w = vvec / vnorm
                lb = float(np.min(Z @ w))
                ub = 1.0 / math.sqrt(2.0 * dual) if dual > 0.0 else math.inf
                if lb > best[0]:
                    best = (lb, ub, w)
                if lb > 0.0 and ub - lb <= tol:
                    return lb, ub, w
    lb, ub, w = best
    if lb <= 0.0:
        raise SeparabilityError(
            f"no separating direction found within {max_iter} iterations"
        )
    raise ConvergenceError(
        f"margin not certified to {tol} within {max_iter} iterations",
        estimate=(lb, ub),
    )


def compute_margin(dataset: FederatedDataset, tol=1e-8, max_iter=500000):
    """Maximum margin gamma and its unit maximizer w_star; caches on the dataset.

    Solved through the dual of the hard-margin program min ||v||^2 subject to
    <v, z> >= 1 for every folded point, with a duality-gap certificate at
    tolerance ``tol``. Non-separable data raises SeparabilityError.
    """
    if dataset.margin is not None:
        return dataset.margin
    Z = dataset.all_points()
    lb, _ub, w = _margin_solver(Z, tol, max_iter)
    result = (lb, w)
    dataset.margin = result
    return result


def _dataset_payload(ds: FederatedDataset):
    sizes = ds.client_sizes
    if not sizes or 0 in sizes:
        raise ValueError("a dataset needs at least one client, and every client a row")
    n = sizes[0] if len(set(sizes)) == 1 else sizes
    payload = {
        "d": ds.d,
        "M": ds.M,
        "n": n,
        "clients": [np.asarray(Z, dtype=np.float64) for Z in ds.clients],
        "margin": None
        if ds.margin is None
        else {"gamma": float(ds.margin[0]),
              "w_star": np.asarray(ds.margin[1], dtype=np.float64)},
    }
    return payload


def save_dataset(ds: FederatedDataset, path, extra=None):
    """Write the versioned JSON snapshot of a dataset (margin included if cached).

    A dataset with no clients or a client with no rows, or a payload holding
    a NaN or an infinity, raises ValueError, so every file this writes loads
    back.
    """
    payload = _dataset_payload(ds)
    values = list(payload["clients"])
    if payload["margin"] is not None:
        values += payload["margin"].values()
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError("dataset holds a non-finite value")
    doc = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "fingerprint": ds.fingerprint(),
    }
    if extra:
        doc.update(extra)
    doc.update(payload)
    write_json(path, doc)


def write_json(path, doc):
    """Write ``doc`` as the JSON artifact format: two-space indent, final newline.

    The bytes are those of ``json.dump(doc, f, indent=2)`` with every float64
    ndarray replaced by its ``tolist()``. That encoder is pure Python once
    ``indent`` is set, so the arrays are written apart: each distinct bit
    pattern among them (bits, so -0.0 stays -0.0) is encoded once by the C
    encoder, and each array's tokens are laid out at the indentation of the
    placeholder string that stood in for it.
    """
    arrays = []

    def stash(obj):
        if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
            arrays.append(obj)
            return tag
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    def nest(tokens, shape, indent):
        if not shape:
            return tokens[0]
        if shape[0] == 0:
            return "[]"
        inner = indent + "  "
        if len(shape) == 1:
            body = (",\n" + inner).join(tokens)
        else:
            step = len(tokens) // shape[0]
            body = (",\n" + inner).join(nest(tokens[i * step:(i + 1) * step], shape[1:], inner)
                                        for i in range(shape[0]))
        return "[\n" + inner + body + "\n" + indent + "]"

    tag = "@ndarray"
    while True:
        arrays.clear()
        pieces = json.dumps(doc, indent=2, default=stash).split(json.dumps(tag))
        if len(pieces) == len(arrays) + 1:
            break
        tag += "@"  # a string in doc encodes to text holding the placeholder's
    tokens = []
    if arrays:
        flat = np.concatenate([array.ravel() for array in arrays])
        bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
        distinct = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
        tokens = np.array(distinct, dtype=object)[inverse].tolist()
    with open(path, "w") as f:
        f.write(pieces[0])
        start = 0
        for array, before, after in zip(arrays, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1:]
            indent = " " * (len(line) - len(line.lstrip(" ")))
            f.write(nest(tokens[start:start + array.size], array.shape, indent))
            f.write(after)
            start += array.size
        f.write("\n")


def read_json(path, parse_float=None):
    """The JSON document in the file at ``path``, floats through ``parse_float``. Whatever
    ``json`` cannot decode (text that is not JSON or not UTF-8, nesting past the recursion
    limit, an integer past Python's digit limit) raises IdxFormatError naming the file."""
    with open(path) as f:
        try:
            return json.load(f, parse_float=parse_float)
        except (ValueError, RecursionError) as err:
            raise IdxFormatError(f"{path}: not a readable JSON file "
                                 f"({type(err).__name__}: {err})") from None


def _floats(values, shape):
    """``values`` as a float64 array of ``shape``; another shape, or an entry that is not a
    finite JSON float (an integer, a boolean, null or a string), is a ValueError. An empty
    list is an empty array of any shape that has no entries."""
    array = np.array(values)
    if array.size == 0:
        array = array.reshape(shape)
    if array.shape != shape:
        raise ValueError(f"shape {array.shape}, need {shape}")
    rows = values if len(shape) == 2 else [values] if shape else [[values]]
    if not all(set(map(type, row)) <= {float} for row in rows) or not np.isfinite(array).all():
        raise ValueError("an entry is not a finite JSON float")
    return array


class _FloatMemo(dict):
    """A ``parse_float`` for ``json``, as ``__getitem__``: the token's ``float``, parsed once.

    A split of pixel data holds a few thousand distinct tokens (values k/255) among hundreds
    of thousands of entries; each distinct token gets one float, shared by all its repeats.
    The key is the token's text, so ``-0.0`` and ``0.0`` stay apart, and every value is
    ``float(token)``, as without the memo.
    """

    def __missing__(self, token):
        value = self[token] = float(token)
        return value


def load_dataset(path) -> FederatedDataset:
    """Read a dataset snapshot written by save_dataset, verifying its format.

    A file that ``read_json`` cannot decode, or one that is not a well-formed
    snapshot (wrong format or version, missing keys, a ``d`` that is not a JSON
    integer, an ``M`` or ``n`` other than the one save_dataset writes for the
    clients, an array of the wrong shape such as a row that is not ``d`` entries
    long or a ``w_star`` that is not, an entry that is not a finite float such as
    an integer or a boolean, a margin gamma outside (0, 1], no clients or a client
    with no rows, a fingerprint that does not match the payload) raises IdxFormatError.
    """
    doc = read_json(path, parse_float=_FloatMemo().__getitem__)
    if (not isinstance(doc, dict) or doc.get("format") != DATASET_FORMAT
            or doc.get("version") != DATASET_VERSION):
        raise IdxFormatError(f"{path}: not a version-{DATASET_VERSION} dataset file")
    try:
        d = doc["d"]
        if type(d) is not int or d < 1:
            raise ValueError(f"d = {reprlib.repr(d)}")
        clients = [_floats(Z, (len(Z), d)) for Z in doc["clients"]]
        margin = None
        if doc.get("margin"):
            margin = (float(_floats(doc["margin"]["gamma"], ())),
                      _floats(doc["margin"]["w_star"], (d,)))
            if not 0.0 < margin[0] <= 1.0:  # every row has norm at most 1
                raise ValueError(f"margin gamma = {margin[0]!r}, outside (0, 1]")
        ds = FederatedDataset(clients=clients, d=d, margin=margin)
        payload = _dataset_payload(ds)
        for key in ("M", "n"):
            if json.dumps(doc[key]) != json.dumps(payload[key]):
                raise ValueError(f"{key} = {reprlib.repr(doc[key])}, "
                                 f"but the clients give {reprlib.repr(payload[key])}")
    except (KeyError, TypeError, ValueError) as err:
        raise IdxFormatError(f"{path}: malformed dataset file ({type(err).__name__}: {err})") from None
    ds.file_fingerprint = ds.fingerprint()
    if "fingerprint" in doc and doc["fingerprint"] != ds.file_fingerprint:
        raise IdxFormatError(f"{path}: fingerprint mismatch; file was modified")
    return ds
