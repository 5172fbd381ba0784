"""Write Wavefront OBJ meshes of a ruled surface and its Mannheim offset.

Equivalent to the CLI:

    dlgeom mesh --input heli.json --out heli.obj --offset --v-range=-1,1

The files go to a temporary directory that is removed when the demo ends.
"""

import json
import pathlib
import tempfile

from dlgeom.cli import main

with tempfile.TemporaryDirectory(prefix="dlgeom-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    spec_path = workdir / "heli.json"
    spec_path.write_text(json.dumps({
        "catalog": "helicoidal",
        "params": {"a": 0.6, "b": 0.8, "delta0": 0.2, "Delta0": 0.1, "c0": [0, 0, 0]},
        "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 61},
    }))

    obj_path = workdir / "helicoidal_with_offset.obj"
    code = main(["mesh", "--input", str(spec_path), "--out", str(obj_path),
                 "--offset", "--v-range=-1,1", "--v-samples", "17"])
    assert code == 0

    text = obj_path.read_text().splitlines()
    n_verts = sum(1 for ln in text if ln.startswith("v "))
    n_faces = sum(1 for ln in text if ln.startswith("f "))
    print(f"wrote {obj_path}")
    print(f"  objects: base + offset, {n_verts} vertices, {n_faces} quads")
    print("  import into any OBJ viewer; the offset sheet crosses the base")
    print("  along the common perpendiculars of matched rulings")

    report_path = workdir / "report"
    code = main(["offset", "--input", str(spec_path), "--out", str(report_path)])
    print(f"\ncompanion verification report (exit {code}):")
    summary = json.loads((workdir / "report.json").read_text())["summary"]["max"]
    print("  worst residual:", max(summary, key=summary.get), max(summary.values()))
