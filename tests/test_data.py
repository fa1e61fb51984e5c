import numpy as np
import pytest

from dpfed.blocks import ConfigurationError
from dpfed.data import (dirichlet_partition, load_csv, make_blobs,
                        make_client_quadratics, quadratic_client_data)
from dpfed.dp import NoiseStream


def blob_data(seed=0, n=600, classes=4, p=3):
    return make_blobs(classes, p, n, NoiseStream(seed))


def test_partition_is_exact():
    X, y = blob_data()
    fed = dirichlet_partition(X, y, 5, 0.5, NoiseStream(1))
    assert sum(len(yc) for _, yc in fed.clients) == len(y)
    seen = np.concatenate([c[0] for c in fed.clients])
    assert seen.shape == X.shape
    # disjoint exact cover: multiset of rows matches the global set
    order_a = np.lexsort(X.T)
    order_b = np.lexsort(seen.T)
    assert np.array_equal(X[order_a], seen[order_b])


def test_no_empty_clients():
    X, y = blob_data()
    for seed in range(5):
        fed = dirichlet_partition(X, y, 8, 0.1, NoiseStream(seed))
        assert all(len(c[1]) > 0 for c in fed.clients)


def test_high_alpha_approaches_global_histogram():
    X, y = blob_data(n=4000)
    fed = dirichlet_partition(X, y, 5, 1e6, NoiseStream(2))
    global_hist = np.bincount(y, minlength=4) / len(y)
    for _, yc in fed.clients:
        hist = np.bincount(yc, minlength=4) / len(yc)
        assert 0.5 * np.abs(hist - global_hist).sum() < 0.05


def test_low_alpha_more_skewed_than_high_alpha():
    # Monte-Carlo ordering oracle over 100 seeds: mean max-class-share.
    X, y = blob_data(n=500)

    def mean_max_share(alpha, seed):
        fed = dirichlet_partition(X, y, 5, alpha, NoiseStream(seed))
        shares = []
        for _, yc in fed.clients:
            hist = np.bincount(yc, minlength=4) / len(yc)
            shares.append(hist.max())
        return np.mean(shares)

    low = np.mean([mean_max_share(0.1, s) for s in range(100)])
    high = np.mean([mean_max_share(10.0, s) for s in range(100)])
    assert low > high


def test_partition_determinism():
    X, y = blob_data()
    a = dirichlet_partition(X, y, 5, 0.5, NoiseStream(3))
    b = dirichlet_partition(X, y, 5, 0.5, NoiseStream(3))
    for (Xa, ya), (Xb, yb) in zip(a.clients, b.clients):
        assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)


def test_partition_validation():
    X, y = blob_data()
    with pytest.raises(ConfigurationError):
        dirichlet_partition(X, y, 1, 0.5, NoiseStream(0))
    with pytest.raises(ConfigurationError):
        dirichlet_partition(X, y, 5, 0.0, NoiseStream(0))


def test_quadratic_centers_iid_limit():
    centers = make_client_quadratics(4, 6, 0.0, NoiseStream(0))
    assert np.allclose(centers, centers[0][None, :])


def test_quadratic_centers_determinism():
    a = make_client_quadratics(4, 6, 1.0, NoiseStream(5))
    b = make_client_quadratics(4, 6, 1.0, NoiseStream(5))
    assert np.array_equal(a, b)


def test_heterogeneity_knob_monotone():
    # Ordering oracle over 20 seeds: dispersion of centers grows with knob.
    def spread(h, seed):
        centers = make_client_quadratics(4, 8, h, NoiseStream(seed))
        return np.mean(np.sum((centers - centers.mean(axis=0)) ** 2, axis=1))

    means = [np.mean([spread(h, s) for s in range(20)])
             for h in (0.1, 1.0, 3.0)]
    assert means[0] < means[1] < means[2]


def test_quadratic_client_data_shapes():
    centers = make_client_quadratics(3, 4, 1.0, NoiseStream(0))
    fed = quadratic_client_data(centers, 12, NoiseStream(0), jitter=0.05)
    assert len(fed.clients) == 4
    for (Xc, yc), center in zip(fed.clients, centers):
        assert Xc.shape == (12, 3)
        assert np.linalg.norm(Xc.mean(axis=0) - center) < 0.1


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f1,f2,label\n0.5,1.0,0\n-1.5,2.0,1\n")
    X, y = load_csv(path)
    assert np.array_equal(X, [[0.5, 1.0], [-1.5, 2.0]])
    assert np.array_equal(y, [0, 1])


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,2,0\n")
    with pytest.raises(ConfigurationError):
        load_csv(path)


MALFORMED_CSV = {
    "empty_file": "",
    "short_row": "f1,f2,label\n0.5,1.0,0\n1.5,2.0\n",
    "long_row": "f1,f2,label\n0.5,1.0,0,7\n",
    "negative_label": "f1,f2,label\n0.5,1.0,-1\n",
    "fractional_label": "f1,f2,label\n0.5,1.0,1.5\n",
    "nan_label": "f1,f2,label\n0.5,1.0,nan\n",
    "text_feature": "f1,f2,label\n0.5,abc,1\n",
    "nan_feature": "f1,f2,label\n0.5,1.0,0\n0.5,nan,1\n",
    "inf_feature": "f1,f2,label\n-inf,1.0,0\n",
    "skipped_class": "f1,label\n0.5,0\n1.5,1\n2.5,5000\n",
}


@pytest.mark.parametrize("text", MALFORMED_CSV.values(), ids=MALFORMED_CSV)
def test_csv_malformed_rejected(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError):
        load_csv(path)


def test_csv_integral_float_labels_accepted(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f1,label\n0.5,2.0\n1.5,0\n2.5,1\n")
    X, y = load_csv(path)
    assert np.array_equal(y, [2, 0, 1]) and y.dtype.kind == "i"
