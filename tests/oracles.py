"""Independent brute-force oracles the library is checked against.

Everything here is deliberately written in plain Python over raw counts, so
it shares no code path with the vectorized implementations it verifies.
"""

import csv
import math
from functools import lru_cache

import numpy as np

from treelab import Condition, DatasetError, SchemaMismatchError


def entropy_counts(counts):
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log2(p)
    return acc


def info_gain(parent, invalid, valid):
    n = sum(parent)
    n_i = sum(invalid)
    n_v = sum(valid)
    return entropy_counts(parent) - (
        (n_i / n) * entropy_counts(invalid) + (n_v / n) * entropy_counts(valid)
    )


def histogram(labels, class_count):
    counts = [0] * class_count
    for lab in labels:
        counts[int(lab)] += 1
    return counts


@lru_cache(maxsize=8)
def decode(data):
    """A dataset's ``(n_rows, n_attributes)`` value matrix, decoded from its rank codes.

    Read-only, and kept for the last few datasets decoded.
    """
    values = data.levels[data.codes.T]
    values.setflags(write=False)
    return values


def iter_candidates(data, rows):
    """All candidate conditions in tie-break order (attribute, then value)."""
    values = decode(data)
    for attribute in range(data.n_attributes):
        cells = [float(values[r, attribute]) for r in rows]
        if data.categories[attribute] is None:
            distinct = sorted(set(cells))
            for low, high in zip(distinct, distinct[1:]):
                threshold = (low + high) / 2.0
                if not threshold < high:
                    threshold = low
                yield Condition(attribute=attribute, op="le", value=threshold)
        else:
            distinct = sorted(set(cells))
            if len(distinct) < 2:
                continue
            for code in distinct:
                yield Condition(attribute=attribute, op="eq", value=code)


def holds(cond, cell):
    cell = float(cell)
    return cell <= cond.value if cond.op == "le" else cell == cond.value


def split_rows(values, rows, cond):
    """``rows`` split into (invalid, valid) by ``cond`` on a value matrix."""
    invalid, valid = [], []
    for r in rows:
        (valid if holds(cond, values[r, cond.attribute]) else invalid).append(r)
    return invalid, valid


def route_row(tree, row):
    """The class of the leaf ``row`` reaches in ``tree``, and the branch path taken."""
    node, path = tree, ()
    while not node.is_leaf:
        if holds(node.condition, row[node.condition.attribute]):
            node, path = node.valid_child, path + (1,)
        else:
            node, path = node.invalid_child, path + (0,)
    return node.label, path


def gain_of(data, rows, cond):
    invalid, valid = split_rows(decode(data), rows, cond)
    if not invalid or not valid:
        return None
    h = data.class_count
    return info_gain(
        histogram(data.labels[list(rows)], h),
        histogram(data.labels[invalid], h),
        histogram(data.labels[valid], h),
    )


def brute_best_condition(data, rows):
    """(condition, gain) by exhaustive enumeration; condition None if gain <= 0."""
    best = None
    best_gain = 0.0
    for cond in iter_candidates(data, rows):
        gain = gain_of(data, rows, cond)
        if gain is not None and gain > best_gain:
            best = cond
            best_gain = gain
    return best, best_gain


def _row_entropies(counts):
    c = counts.astype(np.float64)
    p = c / c.sum(axis=1, keepdims=True)
    terms = np.zeros_like(p)
    mask = c > 0
    terms[mask] = p[mask] * np.log2(p[mask])
    return -terms.sum(axis=1)


def per_attribute_best_condition(data, rows):
    """Reference split search: one stable sort and one gain vector per attribute."""
    rows = np.asarray(rows, dtype=np.int64)
    labels = data.labels[rows]
    h = data.class_count
    parent = np.bincount(labels, minlength=h)
    parent_entropy = _row_entropies(parent[None, :])[0]
    n = rows.size
    best, best_gain = None, 0.0
    for attribute in range(data.n_attributes):
        column = data.levels[data.codes[attribute, rows]]
        if data.categories[attribute] is None:
            order = np.argsort(column, kind="stable")
            ordered = column[order]
            bounds = np.nonzero(ordered[:-1] != ordered[1:])[0]
            one_hot = np.zeros((n, h), dtype=np.int64)
            one_hot[np.arange(n), labels[order]] = 1
            valid = np.cumsum(one_hot, axis=0)[bounds]
            lows, highs = ordered[bounds], ordered[bounds + 1]
            with np.errstate(over="ignore"):  # +-1e308 neighbours: inf, then lows
                midpoints = (lows + highs) / 2.0
            values = np.where(midpoints < highs, midpoints, lows)
            op = "le"
        else:
            values, inverse = np.unique(column, return_inverse=True)
            if values.size < 2:
                continue
            valid = np.zeros((values.size, h), dtype=np.int64)
            np.add.at(valid, (inverse, labels), 1)
            op = "eq"
        if values.size == 0:
            continue
        invalid = parent - valid
        k = valid.shape[0]
        sides = _row_entropies(np.concatenate([invalid, valid]))
        gains = parent_entropy - (
            (invalid.sum(axis=1) / n) * sides[:k] + (valid.sum(axis=1) / n) * sides[k:]
        )
        pick = int(np.argmax(gains))
        if gains[pick] > best_gain:
            best_gain = gains[pick]
            best = Condition(attribute=attribute, op=op, value=float(values[pick]))
    return best


def expand_recursion(data, rows, params):
    """Replay the eager recursion independently.

    Returns a list of (path, rows, kind, payload) where kind is "split" or
    "leaf"; payload is the condition or the majority label (lowest index on
    ties).  Uses the brute-force best condition throughout.
    """
    out = []

    def rec(rows, depth, path):
        counts = histogram(data.labels[list(rows)], data.class_count)
        pure = sum(1 for c in counts if c) == 1
        cond = None
        if not (depth > params.max_depth or len(rows) < params.min_count or pure):
            cond, _ = brute_best_condition(data, rows)
        if cond is None:
            label = max(range(len(counts)), key=lambda i: (counts[i], -i))
            out.append((path, list(rows), "leaf", label))
            return
        out.append((path, list(rows), "split", cond))
        invalid, valid = split_rows(decode(data), rows, cond)
        rec(invalid, depth + 1, path + (0,))
        rec(valid, depth + 1, path + (1,))

    rec(list(np.asarray(rows).tolist()), 0, ())
    return out


def peak_chain_words(node_sizes_by_path):
    """Largest root-to-node sum of live subset sizes over a traced recursion.

    ``node_sizes_by_path`` maps path -> frame word count.  Because frames
    release on exit, the live set at any moment is an ancestor chain.
    """
    best = 0
    for path, _ in node_sizes_by_path.items():
        total = node_sizes_by_path[()]
        for cut in range(1, len(path) + 1):
            total += node_sizes_by_path[path[:cut]]
        best = max(best, total)
    return best


def count_nodes(root):
    """Nodes of one tree, leaves included."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack += (node.invalid_child, node.valid_child)
    return count


def dump_tree(root):
    """Preorder plain-text serialization: `L <class>` / `I <attr> <op> <value>`."""
    lines = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            lines.append(f"L {node.label}")
        else:
            lines.append(f"I {node.condition.attribute} {node.condition.op} "
                         f"{node.condition.value!r}")
            stack += (node.valid_child, node.invalid_child)
    return "\n".join(lines) + "\n"


class SplitMix64:
    """Scalar SplitMix64 generator (Steele, Lea and Flood's mixing constants).

    One draw at a time in Python integers: the reference stream that
    ``treelab.rng.draws_below`` computes in numpy ``uint64`` arithmetic.
    """

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed):
        self._state = seed & self.MASK

    def next_uint64(self):
        self._state = (self._state + self.GAMMA) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform draw in [0, n) by plain modulo reduction."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_uint64() % n


# Reference CSV loader: the per-cell parse the column-wise loader in
# ``treelab.dataset`` replaced.  Every cell goes through ``parse_number``
# on its own; the loader, on its ``csv.reader`` path and on its
# ``np.loadtxt`` path alike, must agree with it cell for cell, error for error.

MISSING_CELLS = frozenset({"", "?"})


def parse_number(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def read_rows(path):
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [[cell.strip() for cell in row] for row in csv.reader(handle)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in rows if row]
    if not rows:
        raise DatasetError(f"{path}: file holds no rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(f"{path}: row {i} has {len(row)} cells, expected {width}")
    return rows


def drop_missing(rows):
    return [row for row in rows if all(cell not in MISSING_CELLS for cell in row)]


def encode_category(cells):
    codes = {}
    encoded = []
    for cell in cells:
        if cell not in codes:
            codes[cell] = len(codes)
        encoded.append(codes[cell])
    return encoded, tuple(codes)


def reference_load_csv(path, has_header=True):
    """The fields ``load_csv`` must produce, as a dict, or its exception."""
    rows = read_rows(path)
    header, data_rows = (rows[0], rows[1:]) if has_header else (None, rows)
    if len(rows[0]) < 2:
        raise DatasetError(f"{path}: need at least 2 columns (attributes + label)")
    kept = drop_missing(data_rows)
    if not kept:
        raise DatasetError(f"{path}: no data rows left after dropping missing values")

    m = len(kept[0]) - 1
    values = np.empty((len(kept), m), dtype=np.float64)
    categories = []
    for j in range(m):
        cells = [row[j] for row in kept]
        parsed = [parse_number(cell) for cell in cells]
        if all(value is not None for value in parsed):
            categories.append(None)
            values[:, j] = parsed
        else:
            encoded, table = encode_category(cells)
            categories.append(table)
            values[:, j] = encoded

    labels, class_names = encode_category([row[m] for row in kept])
    if len(class_names) < 2:
        raise DatasetError(f"{path}: need at least 2 distinct classes")
    return {
        "attr_names": tuple(header[:m]) if header else tuple(f"a{j}" for j in range(m)),
        "label_name": header[m] if header else "label",
        "values": values,
        "labels": labels,
        "class_names": class_names,
        "categories": tuple(categories),
    }


def reference_load_prediction_rows(train, path, has_header=True):
    """The matrix ``load_prediction_rows`` must produce, or its exception."""
    rows = read_rows(path)
    header, data_rows = (rows[0], rows[1:]) if has_header else (None, rows)
    m = train.n_attributes
    width = len(rows[0])
    if width not in (m, m + 1):
        raise SchemaMismatchError(
            f"{path}: expected {m} or {m + 1} columns, found {width}"
        )
    if header is not None:
        expected = train.attr_names + ((train.label_name,) if width == m + 1 else ())
        if tuple(header) != expected:
            raise SchemaMismatchError(
                f"{path}: header {tuple(header)!r} does not match training columns"
            )
    kept = [row[:m] for row in drop_missing(data_rows)]

    matrix = np.empty((len(kept), m), dtype=np.float64)
    for j in range(m):
        cells = [row[j] for row in kept]
        if train.categories[j] is None:
            for i, cell in enumerate(cells):
                value = parse_number(cell)
                if value is None:
                    raise SchemaMismatchError(
                        f"{path}: non-numeric cell {cell!r} in numeric column"
                        f" {train.attr_names[j]!r}"
                    )
                matrix[i, j] = value
        else:
            table = {category: code for code, category in enumerate(train.categories[j])}
            for i, cell in enumerate(cells):
                matrix[i, j] = table.get(cell, -1)
    return matrix
