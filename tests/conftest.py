import numpy as np
import pytest
from hypothesis import strategies as st

from treelab import Dataset, bootstrap
from treelab.rng import mix_seed

def dataset_from_arrays(values, labels, kinds=None, class_names=None, name="synthetic"):
    """Build a Dataset from plain arrays.

    ``kinds`` is a string like "nnc" (numeric/categorical per column);
    defaults to all numeric.  Categorical columns must already hold integer
    codes; decoding tables are synthesized.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    labels = np.asarray(labels, dtype=np.int64)
    m = values.shape[1]
    kinds = kinds or "n" * m
    if class_names is None:
        class_names = tuple(f"class{i}" for i in range(int(labels.max()) + 1))
    categories = []
    for j, kind in enumerate(kinds):
        if kind == "c":
            top = int(values[:, j].max())
            categories.append(tuple(f"cat{v}" for v in range(top + 1)))
        else:
            categories.append(None)
    return Dataset(
        name=name,
        attr_names=tuple(f"a{j}" for j in range(m)),
        values=values,
        labels=labels,
        class_names=tuple(class_names),
        categories=tuple(categories),
    )


def random_dataset(rng, n_rows, n_numeric, n_categorical, n_classes, value_grid=8):
    """Random mixed dataset with label-correlated columns.

    Numeric values come from a small integer grid so duplicate values and
    tied splits actually occur.
    """
    labels = rng.integers(0, n_classes, size=n_rows)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, n_classes, size=n_rows)
    columns = []
    kinds = []
    for _ in range(n_numeric):
        noise = rng.integers(0, value_grid, size=n_rows)
        columns.append((labels * rng.integers(0, 3) + noise).astype(np.float64))
        kinds.append("n")
    for _ in range(n_categorical):
        codes = (labels + rng.integers(0, 3, size=n_rows)) % 4
        columns.append(codes.astype(np.float64))
        kinds.append("c")
    values = np.column_stack(columns)
    return dataset_from_arrays(values, labels, kinds="".join(kinds),
                               class_names=tuple(f"k{i}" for i in range(n_classes)))


def gaussian_dataset(rng, n_rows, n_attributes, n_classes, spread=1.5, name="gauss"):
    """Continuous noisy dataset; trees on it grow deep and unbalanced."""
    labels = rng.integers(0, n_classes, size=n_rows)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, n_classes, size=n_rows)
    centers = rng.normal(0.0, spread, size=(n_classes, n_attributes))
    values = centers[labels] + rng.normal(0.0, 1.0, size=(n_rows, n_attributes))
    return dataset_from_arrays(values, labels, name=name,
                               class_names=tuple(f"k{i}" for i in range(n_classes)))


def find_full_coverage_seed(n_rows, start=0):
    """Base seed whose bootstrap 0 draws every row exactly once."""
    want = list(range(n_rows))
    for base in range(start, start + 10_000):
        sample = bootstrap(np.arange(n_rows), mix_seed(base, 0))
        if sorted(sample.tolist()) == want:
            return base
    raise AssertionError("no covering bootstrap seed found")


@pytest.fixture()
def toy4():
    """Four rows, one attribute: values 1..4, classes A,A,B,B."""
    return dataset_from_arrays(
        [[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1], class_names=("A", "B"), name="toy4"
    )


@pytest.fixture(scope="session")
def breast():
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    raw = sklearn_datasets.load_breast_cancer()
    return dataset_from_arrays(
        raw.data,
        raw.target,
        class_names=tuple(raw.target_names),
        name="breast",
    )


@pytest.fixture(scope="session")
def breast_csv(tmp_path_factory):
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    raw = sklearn_datasets.load_breast_cancer()
    path = tmp_path_factory.mktemp("data") / "breast.csv"
    header = [name.replace(" ", "_") for name in raw.feature_names] + ["diagnosis"]
    lines = [",".join(header)]
    for row, target in zip(raw.data, raw.target):
        cells = [repr(float(v)) for v in row] + [raw.target_names[target]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


# Doubles where rank codes could go wrong: both zeros, subnormals, neighbours
# one ulp apart and the largest magnitudes.
AWKWARD_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, np.nextafter(1e-310, 1.0), 1.0,
    np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0, 1e308, -1e308,
    np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.1, 0.30000000000000004, 0.3,
]


@st.composite
def awkward_tables(draw):
    """A small numeric table of awkward doubles and 2-9 classes.

    Returns the value matrix the dataset was built from and the dataset.
    """
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(st.sampled_from(AWKWARD_VALUES) | st.floats(-1e3, 1e3),
                         min_size=1, max_size=12))
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * m,
                                    max_size=n * m))).reshape(n, m)
    class_count = draw(st.integers(2, 9))
    labels = draw(st.lists(st.integers(0, class_count - 1), min_size=n, max_size=n))
    return values, dataset_from_arrays(values, labels, class_names=tuple(
        f"k{c}" for c in range(class_count)))


def awkward_datasets():
    """The datasets of :func:`awkward_tables`."""
    return awkward_tables().map(lambda table: table[1])
