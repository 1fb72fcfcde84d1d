"""Per-row reference for the CSV artifact format.

The f-string loop every artifact writer used before ``rotshock.csvio``
became the one writer: floats as ``f"{v:.17g}"``, every other cell as
``f"{v}"``, no quoting.  Tests check that ``write_csv`` gives the same bytes.
"""

import numpy as np


def write_csv(path, columns):
    arrs = [np.asarray(v).ravel() for v in columns.values()]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*arrs):
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else f"{v}"
                              for v in row) + "\n")
