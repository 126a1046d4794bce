import json
import math
import pathlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgd import cli, data
from localgd.data import (
    FederatedDataset,
    PartitionSpec,
    RawSample,
    SyntheticSpec,
    compute_margin,
    gen_synthetic,
    load_dataset,
    load_mnist_idx,
    partition_heterogeneous,
    prepare,
    save_dataset,
)
from localgd.errors import IdxFormatError, SeparabilityError

from conftest import random_dataset

DATA_DIR = pathlib.Path(__file__).parent / "data"


class TestPrepare:
    def test_fold_and_scale_single_point(self):
        ds = prepare([(RawSample(np.array([3.0, 4.0]), -1), 0)])
        np.testing.assert_allclose(ds.clients[0][0], [-0.6, -0.8], atol=1e-15)

    def test_unit_data_unchanged(self):
        pts = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
        ds = prepare([(RawSample(pts[0], 1), 0), (RawSample(pts[1], -1), 1)])
        np.testing.assert_allclose(ds.clients[0][0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ds.clients[1][0], [0.0, 1.0], atol=1e-15)

    def test_max_norm_is_one(self, rng):
        raw = [(RawSample(rng.normal(size=3) * 5, int(rng.choice([-1, 1]))), m)
               for m in range(3) for _ in range(4)]
        ds = prepare(raw)
        norms = np.concatenate([np.linalg.norm(Z, axis=1) for Z in ds.clients])
        assert abs(norms.max() - 1.0) <= 1e-12

    def test_max_norm_at_most_one_under_row_norms(self):
        # one division by the largest norm left this dataset's longest row
        # at 1.0000000000000002 under the row-norm formula the runs use
        ds = random_dataset(np.random.default_rng(10824567), M=3, n=1, d=2)
        assert np.linalg.norm(np.concatenate(ds.clients), axis=1).max() <= 1.0

    def test_idempotent(self, rng):
        raw = [(RawSample(rng.normal(size=3), int(rng.choice([-1, 1]))), m)
               for m in range(2) for _ in range(3)]
        once = prepare(raw)
        again = prepare(
            [(RawSample(z.copy(), 1), m) for m, Z in enumerate(once.clients) for z in Z]
        )
        for Z1, Z2 in zip(once.clients, again.clients):
            np.testing.assert_allclose(Z1, Z2, rtol=0, atol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            prepare([])
        with pytest.raises(ValueError, match="empty client"):
            prepare([(RawSample(np.array([1.0]), 1), 0), (RawSample(np.array([1.0]), 1), 2)])
        with pytest.raises(ValueError, match="dimension"):
            prepare([(RawSample(np.array([1.0]), 1), 0), (RawSample(np.array([1.0, 2.0]), 1), 0)])
        with pytest.raises(ValueError, match="label"):
            prepare([(RawSample(np.array([1.0]), 3), 0)])

    def test_rejects_a_negative_client_id_and_all_zero_points(self):
        with pytest.raises(ValueError, match="negative client id -1"):
            prepare([(RawSample(np.array([1.0]), 1), -1), (RawSample(np.array([1.0]), 1), 0)])
        with pytest.raises(ValueError, match="all points are zero"):
            prepare([(RawSample(np.zeros(2), 1), 0), (RawSample(np.zeros(2), -1), 1)])


class TestSynthetic:
    def test_reference_geometry(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        z1, z2 = ds.clients[0][0], ds.clients[1][0]
        assert np.linalg.norm(z1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(z2) == pytest.approx(0.2, abs=1e-12)
        c = (z1 / np.linalg.norm(z1)) @ (z2 / np.linalg.norm(z2))
        assert c == pytest.approx((0.01 - 1) / (0.01 + 1), abs=1e-12)

    def test_orthogonal_at_delta_one(self):
        ds = gen_synthetic(SyntheticSpec(delta=1.0, g=2))
        z1, z2 = ds.clients[0][0], ds.clients[1][0]
        assert z1 @ z2 == pytest.approx(0.0, abs=1e-12)

    def test_equal_norms_at_g_one(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.5, g=1))
        assert np.linalg.norm(ds.clients[0][0]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(ds.clients[1][0]) == pytest.approx(1.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(delta=0.0, g=5)
        with pytest.raises(ValueError):
            SyntheticSpec(delta=0.1, g=0.5)

    @pytest.mark.parametrize("delta,g", [(math.inf, 5), (math.nan, 5), (0.1, math.inf),
                                         (0.1, math.nan)])
    def test_spec_refuses_non_finite(self, delta, g):
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(delta=delta, g=g)

    @pytest.mark.parametrize("delta,g", [(0.1, 5), (1.0, 5), (10.0, 1), (3.0, 1.5), (0.5, 2),
                                         (1e-3, 1), (1.0, 1e5)])
    def test_margin_lies_below_the_spec_bound(self, delta, g):
        gamma, _ = compute_margin(gen_synthetic(SyntheticSpec(delta=delta, g=g)))
        bound = min(1 / g, 2 * delta / ((1 + g) * math.sqrt(1 + delta**2)))
        assert 0.9 * bound <= gamma <= bound * (1 + 1e-9)

    def test_delta_squared_past_the_float_range(self):
        ds = gen_synthetic(SyntheticSpec(delta=1e200, g=2))
        np.testing.assert_array_equal(np.concatenate(ds.clients), [[1e-200, 1.0], [-0.5e-200, 0.5]])


def write_idx_pair(tmp_path, images, labels):
    """Write an (images, labels) IDX file pair; images is (n, rows, cols) uint8."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def second_idx_reader(img_path, lbl_path):
    """Minimal independent IDX reader used as an oracle."""
    raw = open(img_path, "rb").read()
    n = int.from_bytes(raw[4:8], "big")
    rows = int.from_bytes(raw[8:12], "big")
    cols = int.from_bytes(raw[12:16], "big")
    pixels = list(raw[16 : 16 + n * rows * cols])
    lraw = open(lbl_path, "rb").read()
    labels = list(lraw[8 : 8 + n])
    return n, rows, cols, pixels, labels


class TestIdxLoading:
    def test_roundtrip_against_second_reader(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        samples = load_mnist_idx(img, lbl)
        n, rows, cols, pixels, lab = second_idx_reader(img, lbl)
        assert len(samples) == n == 7
        assert samples[0].features.shape == (rows * cols,)
        first = np.array(pixels[: rows * cols]) / 255.0
        np.testing.assert_allclose(samples[0].features, first, atol=1e-15)
        assert [s.label for s in samples] == lab
        assert samples[0].features.min() >= 0 and samples[0].features.max() <= 1

    def test_bad_magic(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(2, 2, 2), dtype=np.uint8)
        labels = np.array([1, 2], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x00\x08\x99" + img.read_bytes()[4:])
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_idx(bad, lbl)

    def test_truncated_file(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
        labels = np.array([1, 2, 3], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        clipped = tmp_path / "clipped"
        clipped.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(IdxFormatError, match="truncated at offset"):
            load_mnist_idx(clipped, lbl)

    def test_count_mismatch(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
        img, _ = write_idx_pair(tmp_path, images, np.array([1, 2, 3], dtype=np.uint8))
        lbl2 = tmp_path / "short-labels"
        with open(lbl2, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 2))
            f.write(bytes([1, 2]))
        with pytest.raises(IdxFormatError, match="labels vs"):
            load_mnist_idx(img, lbl2)


def digit_pool(n_per_digit=100, rng=None):
    """Synthetic 10-class pool: feature = one-hot(digit) with a small jitter.

    The one-hot encoding keeps the digit recoverable from a folded point and
    makes the pool linearly separable under the even/odd labeling.
    """
    samples = []
    for digit in range(10):
        for i in range(n_per_digit):
            x = np.zeros(10)
            x[digit] = 1.0 + 0.001 * (i % 7)
            samples.append(RawSample(x, digit))
    return samples


class TestPartition:
    def test_counts(self):
        pool = digit_pool(100)
        spec = PartitionSpec(n_total=1000, M=5, n_per_client=200, similarity_s=0.05, seed=3)
        ds = partition_heterogeneous(pool, spec)
        assert [len(Z) for Z in ds.clients] == [200] * 5
        assert sum(len(Z) for Z in ds.clients) == 1000

    def test_deterministic(self):
        pool = digit_pool(100)
        spec = PartitionSpec(n_total=500, M=5, n_per_client=100, similarity_s=0.1, seed=11)
        a = partition_heterogeneous(pool, spec)
        b = partition_heterogeneous(pool, spec)
        assert a.fingerprint() == b.fingerprint()
        c = partition_heterogeneous(pool, PartitionSpec(500, 5, 100, 0.1, seed=12))
        assert c.fingerprint() != a.fingerprint()

    def test_low_similarity_concentrates_labels(self):
        pool = digit_pool(100)
        spec = PartitionSpec(n_total=1000, M=5, n_per_client=200, similarity_s=0.05, seed=1)
        ds = partition_heterogeneous(pool, spec)
        # first client lives on the label-sorted head: digits 0 and 1 dominate
        Z = ds.clients[0]
        digits = np.argmax(np.abs(Z), axis=1)
        share_01 = np.mean((digits == 0) | (digits == 1))
        assert share_01 >= 0.9
        # folding encodes parity: digit 0 positive, digit 1 negative
        assert np.all(Z[digits == 0].sum(axis=1) > 0)
        assert np.all(Z[digits == 1].sum(axis=1) < 0)

    def test_full_similarity_mixes_labels(self):
        pool = digit_pool(100)
        spec = PartitionSpec(n_total=1000, M=5, n_per_client=200, similarity_s=1.0, seed=7)
        ds = partition_heterogeneous(pool, spec)
        # chi-squared sanity bound against the uniform digit histogram
        for Z in ds.clients:
            digits = np.argmax(np.abs(Z), axis=1)
            counts = np.bincount(digits, minlength=10)
            expected = len(digits) / 10
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < 40.0

    def test_insufficient_pool(self):
        with pytest.raises(ValueError, match="pool"):
            partition_heterogeneous(digit_pool(1), PartitionSpec(100, 2, 50, 0.1, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec(n_total=10, M=3, n_per_client=4, similarity_s=0.5, seed=0)
        with pytest.raises(ValueError):
            PartitionSpec(n_total=12, M=3, n_per_client=4, similarity_s=1.5, seed=0)


def margin_grid_oracle(ds, step=1e-6):
    """Dense angular sweep of the unit circle (d=2 only)."""
    best = -np.inf
    Z = np.concatenate(ds.clients)
    thetas = np.arange(0.0, 2 * math.pi, step)
    for start in range(0, len(thetas), 1_000_000):
        block = thetas[start : start + 1_000_000]
        W = np.stack([np.cos(block), np.sin(block)], axis=1)
        margins = (W @ Z.T).min(axis=1)
        best = max(best, float(margins.max()))
    return best


class TestMargin:
    def test_single_point(self):
        ds = prepare([(RawSample(np.array([3.0, 4.0]), 1), 0)])
        gamma, w_star = compute_margin(ds)
        assert gamma == pytest.approx(1.0, abs=1e-8)  # scaled to unit norm
        np.testing.assert_allclose(w_star, [0.6, 0.8], atol=1e-8)

    def test_two_symmetric_points(self):
        s = 1 / math.sqrt(2)
        ds = FederatedDataset(
            clients=[np.array([[s, s]]), np.array([[-s, s]])], d=2
        )
        gamma, w_star = compute_margin(ds)
        assert gamma == pytest.approx(s, abs=1e-8)
        np.testing.assert_allclose(w_star, [0.0, 1.0], atol=1e-7)

    def test_self_certification(self, rng):
        from conftest import separable_dataset

        for _ in range(5):
            ds = separable_dataset(rng, M=3, n=4, d=5)
            gamma, w_star = compute_margin(ds)
            assert abs(np.linalg.norm(w_star) - 1.0) <= 1e-12
            margins = np.concatenate([Z @ w_star for Z in ds.clients])
            assert margins.min() == pytest.approx(gamma, abs=1e-8)
            assert gamma > 0

    def test_synthetic_matches_grid_oracle(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        gamma, _ = compute_margin(ds)
        oracle = margin_grid_oracle(ds)
        assert gamma == pytest.approx(oracle, abs=1e-5)

    def test_caches_on_dataset(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.5, g=2))
        assert ds.margin is None
        out1 = compute_margin(ds)
        assert ds.margin is not None
        assert compute_margin(ds) is out1

    def test_non_separable_raises(self):
        ds = FederatedDataset(
            clients=[np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])], d=2
        )
        with pytest.raises(SeparabilityError):
            compute_margin(ds)

    @pytest.mark.parametrize("make, budget, match", [
        # non-separable: ||Z^T alpha|| / sum(alpha) bounds every margin and falls below 1e-6
        # within 2000 iterations
        (lambda: [[1.0, 0.0], [-0.9, 0.0]], 2000, r"sum\(alpha\) < 1e-6"),
        (lambda: [[1.0, 0.0], [-1.0, 0.1], [-1.0, -0.1]], 2000, r"sum\(alpha\) < 1e-6"),
        (lambda: random_dataset(np.random.default_rng(5), M=2, n=200, d=20), 2000,
         r"sum\(alpha\) < 1e-6"),
        # separable, but no iterate separates within a budget this small
        (lambda: [[1.0, 0.0], [-0.9, 0.01]], 25,
         "no separating direction found within 25 iterations"),
    ], ids=["two-points", "three-points", "random-labels", "budget-spent"])
    def test_refusals(self, monkeypatch, make, budget, match):
        ds = make()
        if isinstance(ds, list):
            ds = FederatedDataset(clients=[np.array(ds)], d=2)
        monkeypatch.setattr(data, "MARGIN_MAX_ITER", budget)
        with pytest.raises(SeparabilityError, match=match):
            compute_margin(ds)

    @staticmethod
    def _two_clients(g1, g2, c):
        """flow_lyapunov's geometry, with the closed-form margin 1/sqrt(1^T G^-1 1) of c < 0."""
        u2 = np.array([c, math.sqrt(1.0 - c * c)])
        ds = FederatedDataset(clients=[np.array([[g1, 0.0]]), np.array([g2 * u2])], d=2)
        gram = np.array([[g1 * g1, g1 * g2 * c], [g1 * g2 * c, g2 * g2]])
        return ds, 1.0 / math.sqrt(np.ones(2) @ np.linalg.solve(gram, np.ones(2)))

    def test_near_antipodal_clients_certify(self):
        # the step halved every 25 iterations down to 0.0 here once a halving had fired
        ds, closed = self._two_clients(0.3905020859810673, 0.9005169458510548,
                                       -0.979268164315292)
        gamma, _ = compute_margin(ds)
        assert gamma == pytest.approx(closed, abs=1e-8)
        assert closed == pytest.approx(0.0554194, abs=1e-7)

    def test_near_antipodal_sweep_certifies_quickly(self, monkeypatch):
        # each draw certifies within 450 iterations; the stalled step never does
        monkeypatch.setattr(data, "MARGIN_MAX_ITER", 2000)
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(300):
            g1, g2 = rng.uniform(0.1, 1.0, size=2)
            ds, closed = self._two_clients(g1, g2, float(rng.uniform(-0.99, -0.9)))
            gamma, _ = compute_margin(ds)
            assert gamma == pytest.approx(closed, abs=1e-8)

    def test_exhausted_budget_reports_estimate(self, rng, monkeypatch):
        from localgd.errors import ConvergenceError
        from conftest import separable_dataset

        ds = separable_dataset(rng, M=2, n=10, d=6, offset=0.05)
        monkeypatch.setattr(data, "MARGIN_MAX_ITER", 30)
        with pytest.raises(ConvergenceError) as err:
            compute_margin(ds)
        lb, ub = err.value.estimate
        assert 0 < lb <= ub


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        compute_margin(ds)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.fingerprint() == ds.fingerprint()
        assert back.margin[0] == ds.margin[0]
        np.testing.assert_array_equal(back.clients[0], ds.clients[0])

    def test_schema_fields(self, tmp_path):
        ds = gen_synthetic(SyntheticSpec(delta=1.0, g=1))
        compute_margin(ds)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == data.DATASET_FORMAT
        assert doc["version"] == data.DATASET_VERSION
        assert doc["d"] == 2 and doc["M"] == 2 and doc["n"] == 1
        assert "gamma" in doc["margin"] and "w_star" in doc["margin"]

    def test_rejects_corrupted(self, tmp_path):
        ds = gen_synthetic(SyntheticSpec(delta=1.0, g=1))
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        doc = json.loads(path.read_text())
        doc["clients"][0][0][0] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="fingerprint"):
            load_dataset(path)
        path.write_text("{not json")
        with pytest.raises(IdxFormatError, match="not a readable JSON file"):
            load_dataset(path)

    MALFORMED = {
        "no-d": lambda doc: doc.pop("d"),
        "no-clients": lambda doc: doc.pop("clients"),
        "no-format": lambda doc: doc.pop("format"),
        "wrong-format": lambda doc: doc.update(format="other-dataset"),
        "wrong-version": lambda doc: doc.update(version=2),
        "row-too-long": lambda doc: doc["clients"][0][0].append(0.0),
        "wrong-d": lambda doc: doc.update(d=3),
        "negative-d": lambda doc: doc.update(d=-1),
        "no-gamma": lambda doc: doc["margin"].pop("gamma"),
        "ragged-rows": lambda doc: doc["clients"][1].append([0.5]),
        "fingerprint": lambda doc: doc["clients"][0][0].__setitem__(0, 0.25),
        # the entry cases drop the fingerprint, which would catch them first
        "null-entry": lambda doc: _unsigned(doc)["clients"][0][0].__setitem__(0, None),
        "string-entry": lambda doc: _unsigned(doc)["clients"][1][0].__setitem__(1, "0.5"),
        "bool-row": lambda doc: _unsigned(doc)["clients"][0].__setitem__(0, [True, False]),
        "nan-entry": lambda doc: _unsigned(doc)["clients"][0][0].__setitem__(0, math.nan),
        "infinite-entry": lambda doc: _unsigned(doc)["clients"][1][0].__setitem__(0, -math.inf),
        "string-gamma": lambda doc: doc["margin"].update(gamma="0.5"),
        "null-w_star": lambda doc: doc["margin"]["w_star"].__setitem__(0, None),
        # a row of one-element lists holds the row's payload, so the fingerprint matches
        "nested-row": lambda doc: doc["clients"][0].__setitem__(0, _nest(doc["clients"][0][0])),
        "long-w_star": lambda doc: doc["margin"]["w_star"].append(0.0),
        "nested-w_star": lambda doc: doc["margin"].update(w_star=_nest(doc["margin"]["w_star"])),
        "list-gamma": lambda doc: doc["margin"].update(gamma=[doc["margin"]["gamma"]]),
        # every row has norm at most 1, so a certified margin lies in (0, 1]
        "gamma-above-1": lambda doc: doc["margin"].update(gamma=2.0),
        "negative-gamma": lambda doc: doc["margin"].update(gamma=-0.5),
        "zero-gamma": lambda doc: doc["margin"].update(gamma=0.0),
        # np.array makes a boolean beside a number 1.0 or 0.0
        "mixed-bool-row": lambda doc: _unsigned(doc)["clients"][0].__setitem__(0, [True, 0.5]),
        "bool-w_star": lambda doc: doc["margin"]["w_star"].__setitem__(0, False),
        # an integer gives the same float64 bits, but saving the load would write 1.0
        "int-entry": lambda doc: _unsigned(doc)["clients"][0][0].__setitem__(0, 1),
        "int-gamma": lambda doc: doc["margin"].update(gamma=1),
        "int-w_star": lambda doc: doc["margin"]["w_star"].__setitem__(0, 0),
        # d is a JSON integer; M and n are what save_dataset writes for the clients
        "string-d": lambda doc: doc.update(d="2"),
        "float-d": lambda doc: doc.update(d=2.5),
        "wrong-M": lambda doc: doc.update(M=3),
        "float-M": lambda doc: doc.update(M=2.0),
        "no-M": lambda doc: doc.pop("M"),
        "wrong-n": lambda doc: doc.update(n=2),
        "list-n": lambda doc: doc.update(n=[1, 1]),
        "no-n": lambda doc: doc.pop("n"),
        # a run needs a client, and every client a row; M and n are what they would be
        "zero-clients": lambda doc: _unsigned(doc).update(clients=[], M=0, n=[]),
        "empty-client": lambda doc: _unsigned(doc).update(clients=[[], doc["clients"][1]],
                                                          n=[0, 1]),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_format_error(self, tmp_path, case):
        ds = gen_synthetic(SyntheticSpec(delta=1.0, g=1))
        compute_margin(ds)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        doc = json.loads(path.read_text())
        self.MALFORMED[case](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(IdxFormatError, match=re.escape(str(path))):
            load_dataset(path)
        assert cli.main(["run", "--dataset", str(path), "--eta", "1", "--R", "1",
                         "--out-dir", str(tmp_path / "run")]) == cli.EXIT_IO

    def test_booleans_outside_the_arrays_load(self, tmp_path):
        # only the array entries are held to the float rule
        ds = gen_synthetic(SyntheticSpec(delta=1.0, g=1))
        compute_margin(ds)
        path = tmp_path / "ds.json"
        save_dataset(ds, path, extra={"note": "true or false", "flag": True})
        loaded = load_dataset(path)
        assert loaded.fingerprint() == ds.fingerprint()
        assert np.array_equal(loaded.margin[1], ds.margin[1])

    @pytest.mark.parametrize("clients", [[], [np.zeros((0, 2)), np.array([[0.5, 0.5]])]],
                             ids=["no-clients", "empty-client"])
    def test_save_refuses_a_dataset_without_rows(self, tmp_path, clients):
        path = tmp_path / "ds.json"
        with pytest.raises(ValueError, match="every client a row"):
            save_dataset(FederatedDataset(clients=clients, d=2), path)
        assert not path.exists()

    @pytest.mark.parametrize("where", ["client", "gamma", "w_star"])
    def test_save_refuses_non_finite(self, tmp_path, where):
        ds = gen_synthetic(SyntheticSpec(delta=1.0, g=1))
        compute_margin(ds)
        gamma, w_star = ds.margin
        if where == "client":
            ds.clients[0] = np.array([[0.5, math.nan]])
        elif where == "gamma":
            ds.margin = (math.inf, w_star)
        else:
            ds.margin = (gamma, np.array([0.5, -math.inf]))
        with pytest.raises(ValueError, match="non-finite"):
            save_dataset(ds, tmp_path / "ds.json")


def _unsigned(doc):
    doc.pop("fingerprint")
    return doc


def _nest(row):
    """``row`` as a list of one-element lists."""
    return [[x] for x in row]


def _oracle_bytes(ds, extra=None):
    """The dataset file as json.dump(indent=2) writes it with every array as lists of floats."""
    doc = {"format": data.DATASET_FORMAT, "version": data.DATASET_VERSION,
           "fingerprint": ds.fingerprint()}
    doc.update(extra or {})
    sizes = [len(Z) for Z in ds.clients]
    doc.update({
        "d": ds.d,
        "M": ds.M,
        "n": sizes[0] if len(set(sizes)) == 1 else sizes,
        "clients": [[list(map(float, z)) for z in Z] for Z in ds.clients],
        "margin": None if ds.margin is None else {"gamma": float(ds.margin[0]),
                                                  "w_star": list(map(float, ds.margin[1]))},
    })
    return (json.dumps(doc, indent=2) + "\n").encode()


# -0.0, subnormals and values near the float64 range, beside arbitrary finite floats
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1e-300, -1e-300, 1.7976931348623157e308, 1.0, 0.1, -0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# strings the writer's placeholder could collide with, beside arbitrary text
_STRINGS = st.one_of(st.sampled_from(["@ndarray", "@ndarray@", "@ndarray@@", 'x"@ndarray', "[]"]),
                     st.text(max_size=12))


@st.composite
def _datasets(draw):
    d = draw(st.integers(1, 5))
    # a small pool gives repeated values; drawing each entry afresh gives distinct ones
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
    values = draw(st.sampled_from([st.sampled_from(pool), _FLOATS]))
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    if dtype is np.int64:
        values = st.integers(-2**53, 2**53)
    # save_dataset refuses a client with no rows
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    clients = [np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                      min_size=n, max_size=n)), dtype=dtype).reshape(n, d)
               for n in sizes]
    margin = None
    if draw(st.booleans()):
        w_star = np.array(draw(st.lists(values, min_size=d, max_size=d)), dtype=dtype)
        margin = (draw(_FLOATS), w_star)
    return FederatedDataset(clients=clients, d=d, margin=margin)


_EXTRA = st.dictionaries(
    st.one_of(st.just("clients"), _STRINGS),
    st.recursive(st.one_of(st.none(), st.booleans(), _FLOATS, st.integers(), _STRINGS),
                 lambda inner: st.one_of(st.lists(inner, max_size=3),
                                         st.dictionaries(_STRINGS, inner, max_size=3)),
                 max_leaves=6),
    max_size=4,
)


class TestDatasetBytes:
    """save_dataset writes exactly the bytes json.dump(indent=2) gives for lists of floats."""

    @given(ds=_datasets(), extra=_EXTRA)
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dump(self, tmp_path_factory, ds, extra):
        path = tmp_path_factory.mktemp("bytes") / "ds.json"
        save_dataset(ds, path, extra=extra)
        assert path.read_bytes() == _oracle_bytes(ds, extra)

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        # 0.0 == -0.0, so a writer that merged values by equality would print one for both
        ds = FederatedDataset(clients=[np.array([[0.0, -0.0], [-0.0, 0.0]])], d=2,
                              margin=(0.5, np.array([-0.0, 0.0])))
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        assert path.read_bytes() == _oracle_bytes(ds)
        back = load_dataset(path)
        assert np.signbit(back.clients[0]).tolist() == [[False, True], [True, False]]
        assert np.signbit(back.margin[1]).tolist() == [True, False]

    def test_memoised_read_keeps_every_bit(self, tmp_path):
        # both zeros, repeated tokens, and tokens of one value in other spellings
        path = tmp_path / "ds.json"
        path.write_text(
            '{"format": "localgd-dataset", "version": 1, "d": 4, "M": 1, "n": 2, "clients": '
            '[[[0.0, -0.0, 0.1, 0.1], [-0.0, 0.0, 0.10000000000000001, 1e-320]]], '
            '"margin": {"gamma": 0.1, "w_star": [-0.0, 1E-320, 0.1, 0.0]}}')
        with open(path) as f:
            want = json.load(f)
        back = load_dataset(path)
        assert back.clients[0].tobytes() == np.array(want["clients"][0]).tobytes()
        assert back.margin[1].tobytes() == np.array(want["margin"]["w_star"]).tobytes()
        assert np.signbit(back.clients[0][:, :2]).tolist() == [[False, True], [True, False]]

    def test_each_load_parses_its_distinct_tokens_once(self, tmp_path, monkeypatch):
        ds = FederatedDataset(clients=[np.array([[0.5, -0.0], [0.5, 0.0]]),
                                       np.array([[0.25, 0.5]])], d=2,
                              margin=(0.25, np.array([0.0, 0.5])))
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        parsed = []
        missing = data._FloatMemo.__missing__
        monkeypatch.setattr(data._FloatMemo, "__missing__",
                            lambda memo, token: parsed.append(token) or missing(memo, token))
        for _ in range(2):
            assert load_dataset(path).fingerprint() == ds.fingerprint()
        # no memo outlives its load, so the second load parses every token again
        assert sorted(parsed) == sorted(["0.5", "-0.0", "0.0", "0.25"] * 2)

    @pytest.mark.parametrize("value", [{0.5}, np.arange(2), object()],
                             ids=["set", "int-array", "object"])
    def test_write_json_refuses_what_json_cannot_encode(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError, match="is not JSON serializable"):
            data.write_json(path, {"x": [1.0, value]})
        assert not path.exists()

    def test_golden_multi_sample_rewrites_itself(self, tmp_path):
        golden = DATA_DIR / "golden_multi_sample.json"
        path = tmp_path / "ds.json"
        save_dataset(load_dataset(golden), path)
        assert path.read_bytes() == golden.read_bytes()
