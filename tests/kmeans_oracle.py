"""Per-seed reference for the batched k-means; used by the tests only.

`climfs.evaluation.kmeans` runs the Lloyd iterations of many seeds
together, pricing every center from one product. `kmeans` here is the
loop it replaced: one seed at a time, the squared distances summed
directly from an (n, c, d) difference array and each center the `mean`
of its points. Both draw the same k-means++ centers, so their labels can
be compared run by run.
"""

import numpy as np

from climfs.evaluation import KMEANS_MAX_ITER, _kmeanspp_centers


def kmeans(X: np.ndarray, c: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm from k-means++ centers; ties in assignment go to
    the lowest cluster index, and a cluster left empty is re-seeded at the
    point farthest from its current center."""
    X = np.asarray(X, dtype=float)
    centers = _kmeanspp_centers(X, c, np.random.default_rng(seed))
    labels = np.zeros(X.shape[0], dtype=int)
    for it in range(KMEANS_MAX_ITER):
        d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for cl in range(c):
            members = new_labels == cl
            if members.any():
                centers[cl] = X[members].mean(axis=0)
            else:
                centers[cl] = X[int(np.argmax(np.min(d2, axis=1)))]
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels
