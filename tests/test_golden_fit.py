"""Golden parity: seeded `fit` runs against a recorded fixture.

`golden_fits` lists k-means and Gaussian-mixture fits (full, diagonal and
spherical covariances; d 2-16; M 2-5; two to four restarts; with and
without standardization) on seeded blob data. The fixture
`data/golden_fit.json` holds, for each fit, the iteration count, the
objective and its history, and every fitted parameter. Iteration counts
must match exactly; floats within 1e-9 relative.

Regenerate the fixture, only for an intended change of results, with

    PYTHONPATH=src python tests/test_golden_fit.py
"""

import json
import os

import numpy as np

import clustercf as cf

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_fit.json")
SEED = 20261018
REL_TOL = 1e-9
# (algorithm, covariance, d, M, restarts, standardize)
FITS = (
    (cf.KMEANS, cf.FULL, 2, 3, 3, True),
    (cf.KMEANS, cf.FULL, 16, 4, 2, False),
    (cf.KMEANS, cf.FULL, 5, 5, 4, True),
    ("gmm", cf.FULL, 2, 3, 3, True),
    ("gmm", cf.FULL, 8, 2, 2, False),
    ("gmm", cf.FULL, 16, 2, 2, True),
    ("gmm", cf.FULL, 4, 5, 2, False),
    ("gmm", cf.DIAGONAL, 16, 5, 2, True),
    ("gmm", cf.DIAGONAL, 4, 3, 3, False),
    ("gmm", cf.SPHERICAL, 16, 4, 2, False),
    ("gmm", cf.SPHERICAL, 3, 2, 3, True),
)
FLOAT_FIELDS = ("objective", "history", "means", "covariances", "priors", "std_mean", "std_std")


def _data(rng, d, m):
    """Overlapping blobs with per-feature scales and offsets, so that the
    fits take several iterations and standardization matters."""
    centers = rng.normal(scale=2.5, size=(m, d))
    rows = np.vstack([c + rng.normal(size=(40, d)) * rng.uniform(0.5, 1.5, size=d) for c in centers])
    return cf.Dataset(rows=rows * rng.uniform(0.2, 5.0, size=d) + rng.normal(scale=3.0, size=d))


def golden_fits():
    """Yield (data, config) for every seeded fit."""
    rng = np.random.default_rng(SEED)
    for algorithm, covariance, d, m, restarts, standardize in FITS:
        config = cf.FitConfig(
            algorithm=algorithm, covariance=covariance, n_clusters=m, max_iter=60,
            seed=int(rng.integers(2**31)), restarts=restarts, standardize=standardize,
        )
        yield _data(rng, d, m), config


def record(data, config) -> dict:
    model, info = cf.fit(data, config)
    out = {"iterations": info.iterations, "objective": info.objective,
           "history": list(info.objective_history), "means": model.means().tolist()}
    if model.kind == cf.GAUSSIAN:
        out["covariances"] = [c.covariance.data.tolist() for c in model.components]
        out["priors"] = [c.prior for c in model.components]
    std = model.standardization
    if std is not None:
        out["std_mean"], out["std_std"] = std.mean.tolist(), std.std.tolist()
    return out


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    return float(np.linalg.norm(a - b)) <= REL_TOL * max(np.linalg.norm(a), np.linalg.norm(b))


def test_golden_fit_parity():
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)["fits"]
    fits = list(golden_fits())
    assert len(fits) == len(expected) == len(FITS)
    mismatches = []
    for i, ((data, config), want) in enumerate(zip(fits, expected)):
        got = record(data, config)
        bad = [key for key in FLOAT_FIELDS if not _close(got.get(key), want.get(key))]
        if got["iterations"] != want["iterations"]:
            bad.append("iterations")
        if bad:
            mismatches.append((i, config, bad))
    assert not mismatches, mismatches


if __name__ == "__main__":
    out = [record(data, config) for data, config in golden_fits()]
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "fits": out}, fh, separators=(",", ":"), allow_nan=False)
        fh.write("\n")
    print(f"wrote {len(out)} fits to {FIXTURE} ({os.path.getsize(FIXTURE)} bytes)")
