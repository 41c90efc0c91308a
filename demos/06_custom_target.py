"""Running the pipeline on a user-described target.

Targets other than projective space are described by a JSON file carrying
the grading rank, the target class, and the map-space class for every curve
class up to the truncation one intends to use.  This script writes such a
descriptor (cloning the projective plane, so the answers are checkable
against the builtin), loads it back, and runs the full solver on it.
"""

import json
import tempfile
from pathlib import Path

from stablemaps import (extract_classes, load_target, potential,
                        projective_space, solve_phi0, tree_sum_potential)

builtin = projective_space(2)
descriptor = {
    "name": "plane-from-file",
    "rank": 1,
    "pw": builtin.pw.to_json(),
    "classes": [
        {"beta": [d], "value": builtin.map_class((d,)).to_json()}
        for d in range(1, 3)
    ],
}

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "plane.json"
    path.write_text(json.dumps(descriptor, indent=2))
    print(f"wrote descriptor to {path.name}:")
    print(json.dumps(descriptor, indent=2)[:360], "...")
    print()

    w = load_target(path)
    pot = potential(w, solve_phi0(w, 3, (2,)))
    table = extract_classes(pot, w)
    print("class table from the file target:")
    for (k, d) in table.cells():
        p = table.entry(k, d)
        if not p.is_zero:
            print(f"  k={k} d={d[0]}: {p}")
    print()

    reference = extract_classes(potential(builtin, solve_phi0(builtin, 3, (2,))), builtin)
    same = all(table.entry(k, d) == reference.entry(k, d) for (k, d) in table.cells())
    print("matches the builtin plane target:", same)
    print("tree-sum oracle agrees too:",
          tree_sum_potential(w, 3, (2,)) == pot)
