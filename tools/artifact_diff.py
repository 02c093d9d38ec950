#!/usr/bin/env python3
"""List every difference in what the entdist CLI emits from two source trees.

Runs a fixed matrix of CLI invocations (every command and repro target,
exact and sampled, plots on and off, and failing inputs) once against each
tree.  Each run gets a fresh directory holding the same input files and
uses relative paths, so the trees see identical arguments.  Every output
file, stdout, stderr and exit status is compared byte for byte.  Up to two
cases run at once (no more than the CPUs this process may use); the
results are printed in case order, so the output is a serial run's.

Usage, e.g. against the parent commit:

    mkdir -p /tmp/parent && git archive HEAD~1 src | tar -x -C /tmp/parent
    python3 tools/artifact_diff.py /tmp/parent/src src
    python3 tools/artifact_diff.py /tmp/parent/src src --mode exact

``--mode`` keeps only the cases of one kind: ``exact`` (no sampling),
``sampled`` or ``error`` (runs that must fail).  When the trees' ``__version__``
differ, a case whose outputs match once the old tree's ``entdist <version>``
and ``"version": "<version>"`` are read as the new tree's is listed as
``version only`` and counted apart from the cases that differ; the other
differences of a case are shown with the old tree's version read that way.
Each case is also checked against its kind on the new tree, the error
contract of the README: an ``error`` case exits 1 or 2, writes one stderr
line starting ``error: `` and no file; an ``exact`` or ``sampled`` case exits
0 with only ``note: `` lines on stderr.  A case that breaks it is listed as
off contract; so is a run stopped after ``TIMEOUT_S`` seconds, whose exit
status reads ``timed out``.  When both trees have one ``__version__``, the exact and
sampled cases that exit 0 on the old tree and differ on the new one are
named on a last line, ``bytes moved without a version bump: <cases>``.
Exit status: 0 when nothing differs and no case is off contract, 1
otherwise (version-only differences included).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RUNNER = "import sys; from entdist.cli import main; sys.exit(main(sys.argv[1:]))"
TIMEOUT_S = 300  # seconds one CLI run may take

REFS = [{"label": "A", "vector": [1.5, 0.55]}, {"label": "B", "vector": [0.86, 2.35]}]
CLUSTER_VECTORS = [[1.0, 1.0], [1.1, 1.0], [1.2, 1.0], [5.0, 5.0], [5.1, 5.0]]
TRAINING = [{"label": "blue", "vector": [0.5, 0.5]}, {"label": "red", "vector": [2.5, 2.5]}]
ADDED = {"label": "blue", "vector": [2.35, 2.35]}
# a 6 x 4 integer lattice: many group means tie exactly
LATTICE = [[float(i % 6 + 1), float(i // 6 + 1)] for i in range(24)]


def wave(i: int, dim: int = 16) -> list[float]:
    return [round(math.sin(3 * i + k), 3) for k in range(dim)]


NN64 = [{"label": "ab"[i % 3 % 2], "vector": wave(20 + i)} for i in range(64)]
# 45 4-D vectors in three overlapping blobs: a noisy sampled clustering of 6 rounds
BLOB_CENTRES = [[0, 0, 0, 0], [2, 2, 0, 0], [0, 2, 2, 1]]
BLOBS = [[round(c + 0.8 * w, 3) for c, w in zip(BLOB_CENTRES[i % 3], wave(i, 4))]
         for i in range(45)]
# 1,000 16-D vectors: the writers' row blocks end inside the nested columns of nn
# (vector, distances_before, distances_after) and of cluster (vector)
WAVES = "".join(",".join(map(repr, wave(300 + i))) + "\n" for i in range(1000))
MIXED = [{"label": "a", "vector": [1, 0]}, {"label": "b", "vector": [0, 0, 1, 0]}]
TINY_REFS = [{"label": "b", "vector": [math.ldexp(1, -60), 0]},
             {"label": "a", "vector": [0, math.ldexp(1, -60)]}]
TINY_QUERIES = [[math.ldexp(0.9, -60), math.ldexp(0.1, -60)],
                [math.ldexp(0.1, -60), math.ldexp(0.9, -60)]]

# two blobs at x = +-3 scaled by 2^1020: a group's distance sum passes float64's largest value
NEAR_MAX = [[math.ldexp(round(3 * (-1) ** (i // 6) + 0.8 * math.sin(5 * i), 3), 1020),
             math.ldexp(round(0.8 * math.cos(7 * i), 3), 1020)] for i in range(12)]


# file name -> contents, written into every case directory (bytes as they are,
# other .json contents as JSON)
INPUTS = {
    "vectors.csv": "# x,y\n2,0\n0,2\n1,1\n",
    "vectors.json": [[2, 0], [0, 2], [1.5, 1.5]],
    "vectors4.json": [[2, 0, 0, 1], [0, 2, 1, 0]],
    "bool_vectors.json": [[True, False], [0, 1]],
    "noise.json": {"state_fidelity": 0.9, "dark_count_fraction": 0.01},
    "estimate.toml": 'task = "estimate"\nu = [3.0, 4.0]\nv = [1.0, 0.0]\n',
    "classify.json": {"task": "classify", "vectors": [[2, 0], [0, 2], [1, 1]],
                      "references": REFS},
    "nn_one.json": {"vectors": [[0.6, 0.6], [2.4, 2.4]], "training": {"initial": TRAINING}},
    "nn_two.json": {"vectors": [[0.6, 0.6], [2.4, 2.4], [1.4, 1.6]],
                    "training": {"initial": TRAINING, "added": ADDED}},
    "nn4.json": {"vectors": "vectors4.json",
                 "training": {"initial": [{"label": "x", "vector": [1, 0, 0, 0]}]}},
    "nn4_two.json": {"vectors": "vectors4.json",
                     "training": {"initial": [{"label": "x", "vector": [1, 0, 0, 0]}],
                                  "added": {"label": "y", "vector": [0, 0, 1, 1]}}},
    "cluster.json": {"task": "cluster", "vectors": CLUSTER_VECTORS, "k": 2,
                     "init": [0, 0, 1, 1, 1]},
    "cluster_seeded.json": {"vectors": CLUSTER_VECTORS + [[3.0, 3.1]], "k": 3,
                            "init": 4, "max_iterations": 20,
                            "estimator": {"mode": "sampled", "shots": 300, "seed": 2}},
    "swap.json": {"vectors": [[1.0, 1.0], [1.1, 1.0], [5.0, 5.0], [5.1, 5.0]],
                  "k": 2, "init": [0, 1, 0, 1]},
    "fig2.json": {"task": "fig2", "vectors": [[1.0, 0.5], [0.2, 2.0], [1.2, 1.3]],
                  "estimator": {"shots": 800, "seed": 5}, "noise": "noise.json"},
    "fig2_noplot.json": {"count": 12, "emit_plot": False, "noise": None},
    "estimate_nested.json": {"u": [1, 2], "v": [2, 1], "output": "out",
                             "estimator": {"mode": "sampled", "shots": 50, "seed": 1}},
    "mismatch.json": {"task": "cluster"},
    "bad_unknown.json": {"u": [1, 0], "v": [0, 1], "shot": 5},
    "bad_shots.json": {"u": [1, 0], "v": [0, 1], "estimator": {"shots": 2.5}},
    "bad_estimator.json": {"u": [1, 0], "v": [0, 1], "estimator": "x"},
    "bad_bool_u.json": {"u": [True, False], "v": [0, 1]},
    "bad_k.json": {"vectors": CLUSTER_VECTORS, "k": 2.7},
    "bad_reference.json": {"vectors": [[1, 0]],
                           "references": [{"label": "A"}, REFS[1]]},
    "bad_initial.json": {"vectors": [[1, 0]], "training": {"initial": [{"vector": [1, 0]}]}},
    "bad_added.json": {"vectors": [[1, 0]],
                       "training": {"initial": TRAINING, "added": {"label": "x"}}},
    "bad_init.json": {"vectors": CLUSTER_VECTORS[:3], "k": 2, "init": [0, "a", 0]},
    "bad_noise.json": {"u": [1, 0], "v": [0, 1], "noise": {"fidelity": 0.9}},
    "noise_twice.json": {"u": [1, 0], "v": [0, 1], "noise": "none",
                         "estimator": {"noise": "paper-2012-optics"}},
    "self_noise.json": "self_noise.json",
    "nn16.json": {"vectors": [wave(i) for i in range(6)],
                  "training": {"initial": [{"label": "a", "vector": wave(10)},
                                           {"label": "b", "vector": wave(11)},
                                           {"label": "a", "vector": wave(12)}],
                               "added": {"label": "c", "vector": wave(13)}}},
    # |u - v|^2 of wave(0), wave(7) and of wave(5), wave(11) sums to other bits left to
    # right or in adjacent pairs
    "nn16_sum_order.json": {"vectors": [wave(0), wave(5)],
                            "training": {"initial": [{"label": "a", "vector": wave(7)},
                                                     {"label": "b", "vector": wave(11)}]}},
    "lattice.json": {"vectors": LATTICE, "k": 3, "init": 5, "max_iterations": 30},
    "near_max.json": {"vectors": NEAR_MAX, "k": 2, "init": [0, 1] * 6},
    # integer labels beyond int64: their text must survive in both files
    "big_int_labels.json": {"vectors": CLUSTER_VECTORS, "k": 2,
                            "init": [2**70, 2**70, 0, 0, 2**70]},
    "cluster_noise.json": {"vectors": BLOBS, "k": 3, "init": 0, "noise": "noise.json",
                           "estimator": {"mode": "sampled", "shots": 300, "seed": 4}},
    "fig2_3d.json": {"vectors": [[1, 0, 0]]},
    # a fidelity the 2-qubit channel of fig2's vectors rejects
    "fig2_bad_noise.json": {"vectors": [[1.0, 0.5], [0.2, 2.0]],
                            "noise": {"state_fidelity": 0.2}},
    # np.linalg.norm(axis=1) and the norm of each row alone differ in the last bit here
    "fig2_row_norms.json": {"vectors": [[1.66, 0.11], [0.15, 0.26]]},
    "fig2_empty.json": {"vectors": []},
    "mixed_vectors.json": {"vectors": [[1, 0], 2]},
    # both members of group 1 prefer group 0: the empty-group veto keeps one
    "veto.json": {"vectors": [[1, 0], [1.2, 0], [1.4, 0], [-2, 0], [5, 0]], "k": 2,
                  "init": [0, 0, 0, 1, 1], "max_iterations": 10},
    # (1, 1) and (3, 3) are equally far from both labels: the tie goes to "blue"
    "nn_tie.json": {"vectors": [[1, 1], [3, 3], [2, 0.5]],
                    "training": {"initial": [{"label": "red", "vector": [1, 0]},
                                             {"label": "blue", "vector": [0, 1]}]}},
    # sorting the labels would flip the sign of the boundary function: the grid
    # has exact zeros on the diagonal, so the plotted segments would change
    "classify_reversed.json": {"vectors": [[2, 0], [0, 2], [1, 1], [0.4, 1.3]],
                               "references": [{"label": "B", "vector": [1, 0]},
                                              {"label": "A", "vector": [0, 1]}]},
    # forms the config schema refuses: one flat vector, a one-entry "added" list,
    # a bare training list, and a vectors file holding one flat vector
    "flat_vectors.json": {"vectors": [0.6, 0.6], "training": {"initial": TRAINING}},
    "added_list.json": {"vectors": [[0.6, 0.6]],
                        "training": {"initial": TRAINING, "added": [ADDED]}},
    "training_list.json": {"vectors": [[0.6, 0.6]], "training": TRAINING},
    "flat_vector_file.json": [0.6, 0.6],
    # bytes are written as they are: JSON that does not parse, and a config
    # naming a noise file and a vectors file that do not parse
    "broken.json": b'{"u": [1, 0], "v": [0, 1]\n"shots": 5}',
    "broken_noise.json": {"u": [1, 0], "v": [0, 1], "noise": "broken.json"},
    "broken_vectors.json": {"vectors": "broken.json"},
    # the byte-order mark of a spreadsheet's "CSV UTF-8" export
    "bom.csv": "\ufeff1,0\n0,1\n2,2\n",
    # an & in a config string lands in every SVG's <desc>, and so does a "]]>"
    "classify_cdata.json": {"vectors": [[2, 0], [0, 2]],
                            "references": [{"label": "x]]>y", "vector": [1.5, 0.55]}, REFS[1]]},
    "nn_ampersand.json": {"vectors": [[0.6, 0.6], [2.4, 2.4]],
                          "training": {"initial": [{"label": "a&b", "vector": [0.5, 0.5]},
                                                   {"label": "red", "vector": [2.5, 2.5]}]}},
    "blocker": "not a directory\n",
    # file names inside a config are relative to the config file
    "cfg/cluster.json": {"vectors": "v.csv", "k": 2, "noise": "noise.json"},
    "cfg/v.csv": "1,1\n1.1,1\n5,5\n5.1,5\n",
    "cfg/noise.json": {"state_fidelity": 0.8},
    # an integer component beyond float64
    "big_int_u.json": {"u": [10**400, 0], "v": [0, 1]},
    "big_int_vectors.json": [[10**400, 0], [0, 1]],
    # labels that JSON escapes become keys of summary.json (the per-label distances)
    "nn_escaped_labels.json": {
        "vectors": [[0.6, 0.6], [2.4, 2.4], [1.4, 1.6]],
        "training": {"initial": [{"label": 'say "A"', "vector": [0.5, 0.5]},
                                 {"label": "C:\\caf\u00e9", "vector": [2.5, 2.5]}],
                     "added": {"label": 'say "A"', "vector": [2.35, 2.35]}}},
    # reference labels become the column names distance_<label>: through CSV
    # quoting, JSON key escaping and the braces of summary.json's row template
    "classify_escaped_labels.json": {
        "vectors": [[2, 0], [0, 2], [1.18, 1.45], [0.4, 1.3]],
        "references": [{"label": "{0}", "vector": [1.5, 0.55]},
                       {"label": 'say "A", \u00e9', "vector": [0.86, 2.35]}]},
    # JSON reads 1e400 as inf
    "inf_vectors.json": b"[[1, 0], [1e400, 0]]",
    "zero_row.csv": "1,0\n0,1\n0,0\n",
    # a trailing comma is no cell; an empty cell before the last value is an error
    "empty_cell.csv": "1,0,\n1,,0\n",
    # the bisector runs through contour grid points, where the sign of the gap
    # rests on its last bits
    "classify_grid_points.json": {"vectors": [[-1, -1]],
                                  "references": [{"label": "A", "vector": [-0.77, -1.41]},
                                                 {"label": "B", "vector": [-0.76, -1.40]}]},
    # the fig2 pair and (2, 0) times 2^1020: (hi - lo) * 160 of the plot window
    # overflows unless the boundary is traced in a scaled window
    "classify_huge.json": {"vectors": [[math.ldexp(2.0, 1020), 0.0]],
                           "references": [{"label": label, "vector": [math.ldexp(x, 1020)
                                                                      for x in r["vector"]]}
                                          for label, r in zip("AB", REFS)]},
    # a bad single vector is named by its config key
    "nn_zero_training.json": {"vectors": [[0.6, 0.6]],
                              "training": {"initial": [TRAINING[0], {"label": "red",
                                                                     "vector": [0, 0]}]}},
    # inputs the library's own checks refuse
    "fast_mode.json": {"u": [1, 0], "v": [0, 1], "estimator": {"mode": "fast"}},
    "init_short.json": {"vectors": CLUSTER_VECTORS, "k": 2, "init": [0, 0, 1, 1]},
    "init_one_label.json": {"vectors": CLUSTER_VECTORS, "k": 2, "init": [0, 0, 0, 0, 0]},
    "nn_empty_training.json": {"vectors": [[1, 0]], "training": {"initial": []}},
    "same_labels.json": {"vectors": [[1, 0]],
                         "references": [{"label": "A", "vector": [1, 0]},
                                        {"label": "A", "vector": [0, 1]}]},
    # labels equal once read as text: the command compares str(label)
    "labels_equal_as_text.json": {"vectors": [[1, 0]],
                                  "references": [{"label": 1, "vector": [1, 0]},
                                                 {"label": "1", "vector": [0, 1]}]},
    # integer reference labels name the columns distance_10 and distance_9, and the
    # plot colours go by the labels sorted as text
    "classify_int_labels.json": {"vectors": [[2, 0], [0, 2], [1.18, 1.45], [0.4, 1.3]],
                                 "references": [{"label": 10, "vector": [1.5, 0.55]},
                                                {"label": 9, "vector": [0.86, 2.35]}]},
    # integer labels 10, 9 and 2 sort otherwise as text; the added vector brings a fourth
    "nn_int_labels.json": {"vectors": [[0.6, 0.6], [2.4, 2.4], [1.4, 1.6], [3.1, 0.2]],
                           "training": {"initial": [{"label": 10, "vector": [0.5, 0.5]},
                                                    {"label": 9, "vector": [2.5, 2.5]},
                                                    {"label": 2, "vector": [3.0, 0.1]}],
                                        "added": {"label": 7, "vector": [1.5, 1.5]}}},
    # padded and tab cells, a quoted number, a trailing comma and a comment after the data
    "padded.csv": ' 1 ,\t1.0\n"1.1",1,\n5 , 5\t\n\t5.1,5\n# end\n',
    # the training set is checked as one block: 64 entries, and entry 37 of it not finite
    "nn64.json": {"vectors": [wave(i) for i in range(6)],
                  "training": {"initial": NN64, "added": {"label": "c", "vector": wave(99)}}},
    "waves.csv": WAVES,
    "nn_waves.json": {"vectors": "waves.csv",
                      "training": {"initial": NN64, "added": {"label": "c", "vector": wave(99)}}},
    "nn64_inf.json": {"vectors": [wave(0)],
                      "training": {"initial": [*NN64[:37],
                                               {"label": "a", "vector": [math.inf] * 16},
                                               *NN64[38:]]}},
    # training vectors of two dimensions, and an added vector of a third: the dimensions
    # are named once the test vectors are read
    "nn_mixed_dims.json": {"vectors": [[0.6, 0.6]], "training": {"initial": MIXED}},
    "nn_mixed_dims_added.json": {"vectors": [[0.6, 0.6]],
                                 "training": {"initial": MIXED,
                                              "added": {"label": "c", "vector": [1] * 8}}},
    "nn_mixed_dims_bad_entry.json": {"vectors": [[0.6, 0.6]],
                                     "training": {"initial": [*MIXED, {"label": "c",
                                                                       "vector": [0, 0, 0]}]}},
    # references and a training set at 2^-60: the tie window is relative to the nearest
    # distance, so the labels are those at unit scale
    "classify_tiny.json": {"vectors": TINY_QUERIES, "references": TINY_REFS},
    "nn_tiny.json": {"vectors": TINY_QUERIES, "training": {"initial": TINY_REFS}},
    "header_only.csv": "x,y\n",
    "late_text.csv": "1,0\n2,zz\n",
    "fidelity_above_one.json": {"state_fidelity": 1.5},
    "dark_counts_all.json": {"dark_count_fraction": 1},
    "split_above_one.json": {"background_split": 2},
}

INPUT_DIRS = {str(Path(name).parent) for name in INPUTS} - {"."}

SHOTS = ("--shots", "400", "--seed", "7")
CLASSIFY = ("classify", "--vector", "2,0", "--vector", "0,2", "--vector", "1.2,1.2",
            "--ref-a", "1.5,0.55", "--ref-b", "0.86,2.35", "--out", "out")

# (name, mode, argv)
CASES = [
    ("estimate", "exact", ("estimate", "--u", "1,0", "--v", "0,1")),
    ("estimate-out", "exact", ("estimate", "--u", "3,0,0,4", "--v", "1,0,0,0", "--out", "out")),
    ("estimate-toml", "exact", ("estimate", "--config", "estimate.toml")),
    ("estimate-sampled-noise", "sampled",
     ("estimate", "--u", "1,0", "--v", "0.5,2", *SHOTS, "--noise", "paper-2012-optics")),
    ("estimate-nested-config", "sampled", ("estimate", "--config", "estimate_nested.json")),
    ("classify-plot", "exact", (*CLASSIFY, "--plot")),
    ("classify-sampled", "sampled", (*CLASSIFY, *SHOTS, "--noise", "noise.json")),
    ("classify-csv", "exact", ("classify", "--vectors", "vectors.csv", "--ref-a", "1,0",
                               "--ref-b", "0,1", "--out", "out")),
    ("classify-config", "exact", ("classify", "--config", "classify.json", "--out", "out",
                                  "--plot")),
    ("classify-json-vectors", "sampled", ("classify", "--config", "classify.json",
                                          "--vectors", "vectors.json", "--out", "out", *SHOTS)),
    ("nn-one-phase", "exact", ("nn", "--config", "nn_one.json", "--out", "out", "--plot")),
    ("nn-one-phase-sampled", "sampled", ("nn", "--config", "nn_one.json", "--out", "out",
                                         *SHOTS)),
    ("nn-two-phase", "exact", ("nn", "--config", "nn_two.json", "--out", "out", "--plot")),
    ("nn-two-phase-sampled", "sampled", ("nn", "--config", "nn_two.json", "--out", "out",
                                         *SHOTS, "--vector", "1,1")),
    ("cluster", "exact", ("cluster", "--config", "cluster.json", "--out", "out")),
    ("cluster-plot", "exact", ("cluster", "--config", "cluster.json", "--out", "out", "--plot")),
    ("cluster-seeded", "sampled", ("cluster", "--config", "cluster_seeded.json", "--out", "out",
                                   "--plot")),
    ("cluster-flags", "sampled", ("cluster", "--config", "cluster_seeded.json", "--out", "out",
                                  "--k", "2", "--init", "1", "--max-iterations", "3")),
    ("cluster-not-converged", "exact", ("cluster", "--config", "swap.json", "--out", "out")),
    ("table1", "sampled", ("repro", "table1", "--out", "out")),
    ("table1-exact", "exact", ("repro", "table1", "--out", "out", "--exact", "--plot")),
    ("table2", "sampled", ("repro", "table2", "--out", "out", "--seed", "3", "--noise", "none")),
    ("table2-exact", "exact", ("repro", "table2", "--out", "out", "--exact")),
    ("fig2", "sampled", ("repro", "fig2", "--out", "out", "--count", "30", "--seed", "1")),
    ("fig2-exact", "exact", ("repro", "fig2", "--out", "out", "--count", "10", "--exact")),
    # the benchmark's size (the default count is 100) at every other default, plot on
    ("fig2-default", "sampled", ("repro", "fig2", "--out", "out", "--count", "4000")),
    ("fig2-no-plot", "sampled", ("repro", "fig2", "--config", "fig2_noplot.json",
                                 "--out", "out")),
    ("fig2-vectors", "sampled", ("repro", "fig2", "--config", "fig2.json", "--out", "out")),
    ("fig3", "exact", ("repro", "fig3", "--out", "out")),
    ("fig3-sampled", "sampled", ("repro", "fig3", "--out", "out", *SHOTS)),
    ("figS1", "exact", ("repro", "figS1", "--out", "out")),
    ("figS1-sampled", "sampled", ("repro", "figS1", "--out", "out", *SHOTS)),
    # pin multiplication: every norm is squared as x * x, and C pow squares
    # the norm of (0.19, 0.75) one ulp apart from it
    ("estimate-square-trap", "exact", ("estimate", "--u", "0.19,0.75", "--v", "1.5,0.55")),
    ("estimate-square-trap-sampled", "sampled", ("estimate", "--u", "0.19,0.75",
                                                 "--v", "1.5,0.55", *SHOTS)),
    ("classify-square-trap", "exact", ("classify", "--vector", "0.19,0.75", "--vector", "2,0",
                                       "--ref-a", "1.5,0.55", "--ref-b", "0.86,2.35",
                                       "--out", "out")),
    ("classify-square-trap-sampled", "sampled", ("classify", "--vector", "0.19,0.75",
                                                 "--vector", "2,0", "--ref-a", "1.5,0.55",
                                                 "--ref-b", "0.86,2.35", "--out", "out",
                                                 *SHOTS)),
    # pin the sum of squares: a fused multiply-add sums the norm of (1.1, 1.55) and
    # |u - v|^2 of this pair to other bits than x0 * x0 + x1 * x1; the 16-D pairs pin
    # the order of the tree
    ("estimate-sum-order-trap", "exact", ("estimate", "--u", "0.25,2.2", "--v", "1.1,1.55")),
    ("nn-16d-sum-order-trap", "exact", ("nn", "--config", "nn16_sum_order.json",
                                        "--out", "out")),
    ("nn-16d-two-phase", "exact", ("nn", "--config", "nn16.json", "--out", "out")),
    ("nn-16d-two-phase-sampled", "sampled", ("nn", "--config", "nn16.json", "--out", "out",
                                             *SHOTS)),
    ("cluster-lattice", "exact", ("cluster", "--config", "lattice.json", "--out", "out")),
    ("cluster-lattice-sampled", "sampled", ("cluster", "--config", "lattice.json",
                                            "--out", "out", *SHOTS)),
    ("cluster-sampled-noise", "sampled", ("cluster", "--config", "cluster_noise.json",
                                          "--out", "out")),
    ("cluster-veto", "exact", ("cluster", "--config", "veto.json", "--out", "out")),
    ("cluster-near-max", "exact", ("cluster", "--config", "near_max.json", "--out", "out")),
    ("cluster-big-int-labels", "exact", ("cluster", "--config", "big_int_labels.json",
                                         "--out", "out")),
    ("nn-tie", "exact", ("nn", "--config", "nn_tie.json", "--out", "out")),
    ("fig2-row-norm-trap", "exact", ("repro", "fig2", "--config", "fig2_row_norms.json",
                                     "--out", "out", "--exact")),
    ("cluster-config-in-subdirectory", "exact", ("cluster", "--config", "cfg/cluster.json",
                                                 "--out", "out")),
    ("classify-reversed-labels-plot", "exact", ("classify", "--config", "classify_reversed.json",
                                                "--out", "out", "--plot")),
    ("cluster-bom-csv", "exact", ("cluster", "--vectors", "bom.csv", "--out", "out")),
    ("cluster-padded-csv", "exact", ("cluster", "--vectors", "padded.csv", "--out", "out")),
    ("nn-64-entries", "exact", ("nn", "--config", "nn64.json", "--out", "out")),
    # 1,000 rows: results.csv and summary.json are written in several row blocks
    ("nn-1000-two-phase", "exact", ("nn", "--config", "nn_waves.json", "--out", "out")),
    ("nn-1000-two-phase-sampled", "sampled", ("nn", "--config", "nn_waves.json", "--out", "out",
                                              *SHOTS)),
    ("cluster-1000", "exact", ("cluster", "--vectors", "waves.csv", "--k", "4", "--init", "3",
                               "--out", "out")),
    # 1,000 16-D rows: the upper block of every sampled round spans 16 row blocks
    ("cluster-1000-sampled", "sampled", ("cluster", "--vectors", "waves.csv", "--k", "4",
                                         "--init", "3", *SHOTS, "--max-iterations", "3",
                                         "--out", "out")),
    ("classify-scale-2-60", "exact", ("classify", "--config", "classify_tiny.json",
                                      "--out", "out")),
    ("nn-scale-2-60", "exact", ("nn", "--config", "nn_tiny.json", "--out", "out")),
    ("nn-integer-labels", "exact", ("nn", "--config", "nn_int_labels.json", "--out", "out",
                                    "--plot")),
    ("classify-integer-labels-plot", "exact", ("classify", "--config", "classify_int_labels.json",
                                               "--out", "out", "--plot")),
    ("nn-ampersand-label-plot", "exact", ("nn", "--config", "nn_ampersand.json", "--out", "out",
                                          "--plot")),
    ("nn-escaped-labels-plot", "exact", ("nn", "--config", "nn_escaped_labels.json",
                                         "--out", "out", "--plot")),
    ("classify-escaped-labels-plot", "exact", ("classify", "--config",
                                               "classify_escaped_labels.json", "--out", "out",
                                               "--plot")),
    ("classify-bisector-through-grid-points-plot", "exact", ("classify", "--config",
                                                             "classify_grid_points.json",
                                                             "--out", "out", "--plot")),
    ("classify-huge-window-plot", "exact", ("classify", "--config", "classify_huge.json",
                                            "--out", "out", "--plot")),
    # argparse alone would read -1,0 as an option
    ("estimate-negative-first-component", "exact", ("estimate", "--u", "-1,0", "--v", "1,0")),
    ("classify-cdata-end-label-plot", "exact", ("classify", "--config", "classify_cdata.json",
                                                "--out", "out", "--plot")),
    # three copies of one point: at 2e15 a tick step is below half an ulp of the ticks, and
    # from 4e15 on the window's ends, the point less and plus 0.25, round to the point itself
    ("cluster-plot-coincident-2e15", "exact", ("cluster", *["--vector", "2e15,2e15"] * 3,
                                               "--k", "2", "--init", "0", "--out", "out",
                                               "--plot")),
    ("cluster-plot-coincident-1e17", "exact", ("cluster", *["--vector", "1e17,1e17"] * 3,
                                               "--k", "2", "--init", "0", "--out", "out",
                                               "--plot")),
    ("help", "exact", ("--help",)),
    ("version", "exact", ("--version",)),
    ("err-usage", "error", ("frobnicate",)),
    ("err-missing-out", "error", ("repro", "table1")),
    ("err-out-is-file", "error", ("repro", "fig3", "--out", "blocker")),
    ("err-estimate-out-is-file", "error", ("estimate", "--u", "1,0", "--v", "0,1",
                                           "--out", "blocker")),
    ("err-task-mismatch", "error", ("estimate", "--config", "mismatch.json")),
    ("err-noise-preset", "error", ("repro", "table1", "--out", "out", "--noise", "bogus")),
    ("err-exact-and-shots", "error", ("estimate", "--u", "1,0", "--v", "0,1", "--exact",
                                      "--shots", "5")),
    ("err-one-reference", "error", ("classify", "--vector", "1,0", "--ref-a", "1,0",
                                    "--out", "out")),
    ("err-zero-vector", "error", ("estimate", "--u", "0,0", "--v", "1,0")),
    ("err-bad-number", "error", ("estimate", "--u", "1,x", "--v", "1,0")),
    ("err-classify-plot-4d", "error", ("classify", "--vectors", "vectors4.json", "--ref-a",
                                       "1,0,0,0", "--ref-b", "0,0,1,1", "--out", "out",
                                       "--plot")),
    ("err-cluster-plot-4d", "error", ("cluster", "--vectors", "vectors4.json", "--out", "out",
                                      "--plot")),
    ("err-nn-plot-4d", "error", ("nn", "--config", "nn4.json", "--out", "out", "--plot")),
    ("err-nn-two-phase-plot-4d", "error", ("nn", "--config", "nn4_two.json", "--out", "out",
                                           "--plot")),
    ("err-cluster-k", "error", ("cluster", "--vector", "1,0", "--vector", "0,1", "--k", "5",
                                "--out", "out")),
    ("err-unknown-key", "error", ("estimate", "--config", "bad_unknown.json")),
    ("err-float-shots", "error", ("estimate", "--config", "bad_shots.json")),
    ("err-estimator-string", "error", ("estimate", "--config", "bad_estimator.json")),
    ("err-bool-config-vector", "error", ("estimate", "--config", "bad_bool_u.json")),
    ("err-bool-vector-file", "error", ("classify", "--vectors", "bool_vectors.json",
                                       "--ref-a", "1,0", "--ref-b", "0,1", "--out", "out")),
    ("err-float-k", "error", ("cluster", "--config", "bad_k.json", "--out", "out")),
    ("err-reference-no-vector", "error", ("classify", "--config", "bad_reference.json",
                                          "--out", "out")),
    ("err-training-no-label", "error", ("nn", "--config", "bad_initial.json", "--out", "out")),
    ("err-added-no-vector", "error", ("nn", "--config", "bad_added.json", "--out", "out")),
    ("err-mixed-init", "error", ("cluster", "--config", "bad_init.json", "--out", "out")),
    ("err-noise-field", "error", ("estimate", "--config", "bad_noise.json")),
    ("err-noise-file-loop", "error", ("estimate", "--u", "1,0", "--v", "0,1",
                                      "--noise", "self_noise.json")),
    # squares that leave float64's range: each pair is evaluated scaled by a power of two
    ("tiny-norm", "exact", ("estimate", "--u", "1e-200,0", "--v", "1,0")),
    ("huge-norm", "exact", ("estimate", "--u", "1e200,0", "--v", "1,0")),
    ("tiny-norms", "exact", ("estimate", "--u", "1e-200,0", "--v", "0,1e-200")),
    ("estimate-subnormal", "exact", ("estimate", "--u", "5e-324,0", "--v", "0,5e-324")),
    # |u| / |v| is beyond float64's range: p is 1/2 and the overlap 0
    ("estimate-norm-ratio", "exact", ("estimate", "--u", "1e-300,0", "--v", "0,1e300")),
    # the sampled scalar path at the same scale edges: the draw reads the scaled pair's p
    ("estimate-norm-ratio-sampled", "sampled", ("estimate", "--u", "1e-300,0", "--v", "0,1e300",
                                                *SHOTS)),
    ("tiny-norms-sampled-noise", "sampled", ("estimate", "--u", "1e-200,0", "--v", "0,1e-200",
                                             "--noise", "paper-2012-optics", *SHOTS)),
    # a norm above half of float64's largest value would let |u - v| overflow
    ("err-norm-above-half-max", "error", ("estimate", "--u", "1e308,1e308", "--v", "1,0")),
    ("err-cluster-3d", "error", ("cluster", "--vector", "1,0,0", "--vector", "0,1,0",
                                 "--vector", "5,5,0", "--out", "out")),
    ("err-estimate-dims", "error", ("estimate", "--u", "1,0", "--v", "1,0,0,0")),
    ("err-classify-dims", "error", ("classify", "--vector", "1,0", "--ref-a", "1,0,0,0",
                                    "--ref-b", "0,0,1,1", "--out", "out")),
    ("err-nn-dims", "error", ("nn", "--config", "nn4.json", "--vector", "1,0", "--out", "out")),
    ("err-fig2-3d", "error", ("repro", "fig2", "--config", "fig2_3d.json", "--out", "out")),
    ("cluster-tiny-norm", "exact", ("cluster", "--vector", "1e-200,0", "--vector", "0,1",
                                    "--vector", "1,1", "--out", "out")),
    ("err-fig2-noise-fidelity", "error", ("repro", "fig2", "--config", "fig2_bad_noise.json",
                                          "--out", "out")),
    ("err-nn-16d-noise", "error", ("nn", "--config", "nn16.json", "--out", "out",
                                   "--noise", "paper-2012-optics")),
    ("err-classify-ragged", "error", ("classify", "--vector", "1,0", "--vector", "1,0,0,0",
                                      "--ref-a", "1,0", "--ref-b", "0,1", "--out", "out")),
    ("err-fig2-empty-vectors", "error", ("repro", "fig2", "--config", "fig2_empty.json",
                                         "--out", "out")),
    ("err-mixed-vectors", "error", ("cluster", "--config", "mixed_vectors.json",
                                    "--out", "out")),
    ("err-negative-init", "error", ("cluster", "--vector", "1,0", "--vector", "0,1",
                                    "--init", "-1", "--out", "out")),
    ("err-vector-and-vectors", "error", ("classify", "--vector", "1,0", "--vectors",
                                         "vectors.csv", "--ref-a", "1,0", "--ref-b", "0,1",
                                         "--out", "out")),
    ("err-fig2-count-and-vectors", "error", ("repro", "fig2", "--config", "fig2.json",
                                             "--count", "30", "--out", "out")),
    ("err-noise-and-estimator-noise", "error", ("estimate", "--config", "noise_twice.json")),
    ("err-flat-vectors", "error", ("nn", "--config", "flat_vectors.json", "--out", "out")),
    ("err-added-list", "error", ("nn", "--config", "added_list.json", "--out", "out")),
    ("err-noise-off", "error", ("estimate", "--u", "1,0", "--v", "0,1", "--noise", "off")),
    # numpy's binomial takes shots as a C long
    ("err-shots-2-63", "error", ("estimate", "--u", "1,0", "--v", "0,1",
                                 "--shots", "9223372036854775808")),
    ("err-fig2-count-memory", "error", ("repro", "fig2", "--count", "1000000000000000",
                                        "--out", "out")),
    # both squared norms are finite, their sum is not
    ("norm-sum-overflow", "exact", ("estimate", "--u", "1e154,0", "--v", "0,1e154")),
    ("err-big-int-config", "error", ("estimate", "--config", "big_int_u.json")),
    ("err-big-int-vectors-file", "error", ("cluster", "--vectors", "big_int_vectors.json",
                                           "--k", "2", "--out", "out")),
    ("err-training-list", "error", ("nn", "--config", "training_list.json", "--out", "out")),
    ("err-flat-vector-file", "error", ("cluster", "--vectors", "flat_vector_file.json",
                                       "--out", "out")),
    ("err-config-does-not-parse", "error", ("estimate", "--config", "broken.json")),
    ("err-noise-file-does-not-parse", "error", ("estimate", "--config", "broken_noise.json")),
    ("err-vectors-file-does-not-parse", "error", ("cluster", "--config", "broken_vectors.json",
                                                  "--out", "out")),
    ("err-non-finite-vectors-file", "error", ("cluster", "--vectors", "inf_vectors.json",
                                              "--out", "out")),
    ("err-zero-row-csv", "error", ("cluster", "--vectors", "zero_row.csv", "--out", "out")),
    ("err-csv-empty-cell", "error", ("cluster", "--vectors", "empty_cell.csv", "--out", "out")),
    ("err-nn-64-entries-non-finite", "error", ("nn", "--config", "nn64_inf.json",
                                               "--out", "out")),
    ("err-nn-mixed-dims", "error", ("nn", "--config", "nn_mixed_dims.json", "--out", "out")),
    ("err-nn-mixed-dims-added", "error", ("nn", "--config", "nn_mixed_dims_added.json",
                                          "--out", "out")),
    # a bad vectors file is named before training vectors of several dimensions
    ("err-nn-mixed-dims-bad-vectors", "error", ("nn", "--config", "nn_mixed_dims.json",
                                                "--vectors", "zero_row.csv", "--out", "out")),
    ("err-nn-mixed-dims-added-bad-vectors", "error", ("nn", "--config",
                                                      "nn_mixed_dims_added.json", "--vectors",
                                                      "inf_vectors.json", "--out", "out")),
    # a bad entry is named before the dimensions, and before a bad vectors file
    ("err-nn-mixed-dims-bad-entry", "error", ("nn", "--config", "nn_mixed_dims_bad_entry.json",
                                              "--vectors", "zero_row.csv", "--out", "out")),
    ("err-zero-training-entry", "error", ("nn", "--config", "nn_zero_training.json",
                                          "--out", "out")),
    ("err-non-finite-reference", "error", ("classify", "--vector", "1,0", "--ref-a", "1,0",
                                           "--ref-b", "nan,1", "--out", "out")),
    ("err-zero-shots", "error", ("estimate", "--u", "1,0", "--v", "0,1", "--shots", "0")),
    ("err-negative-seed", "error", ("estimate", "--u", "1,0", "--v", "0,1", "--seed", "-1")),
    ("err-unknown-mode", "error", ("estimate", "--config", "fast_mode.json")),
    ("err-zero-max-iterations", "error", ("cluster", "--vector", "1,0", "--vector", "0,1",
                                          "--max-iterations", "0", "--out", "out")),
    ("err-init-short", "error", ("cluster", "--config", "init_short.json", "--out", "out")),
    ("err-init-one-label", "error", ("cluster", "--config", "init_one_label.json",
                                     "--out", "out")),
    ("err-estimate-one-vector", "error", ("estimate", "--u", "1,0")),
    ("err-classify-no-references", "error", ("classify", "--vector", "1,0", "--out", "out")),
    ("err-nn-no-training", "error", ("nn", "--vector", "1,0", "--out", "out")),
    ("err-empty-training", "error", ("nn", "--config", "nn_empty_training.json",
                                     "--out", "out")),
    ("err-cluster-no-vectors", "error", ("cluster", "--out", "out")),
    ("err-csv-header-only", "error", ("cluster", "--vectors", "header_only.csv", "--out", "out")),
    ("err-csv-late-text", "error", ("cluster", "--vectors", "late_text.csv", "--out", "out")),
    ("err-empty-vector-flag", "error", ("estimate", "--u", ",", "--v", "1,0")),
    ("err-empty-cell-flag", "error", ("estimate", "--u", "1,,0", "--v", "0,1")),
    ("err-bad-flag-value", "error", ("estimate", "--u", "1,0", "--v", "0,1", "--shots", "abc")),
    ("err-same-reference-labels", "error", ("classify", "--config", "same_labels.json",
                                            "--out", "out")),
    ("err-classify-labels-equal-as-text", "error", ("classify", "--config",
                                                    "labels_equal_as_text.json", "--out", "out")),
    ("err-fidelity-above-one", "error", ("estimate", "--u", "1,0", "--v", "0,1",
                                         "--noise", "fidelity_above_one.json")),
    ("err-dark-counts-all", "error", ("estimate", "--u", "1,0", "--v", "0,1",
                                      "--noise", "dark_counts_all.json")),
    ("err-split-above-one", "error", ("estimate", "--u", "1,0", "--v", "0,1",
                                      "--noise", "split_above_one.json")),
]


def run_case(src: Path, argv, workdir: Path) -> dict:
    """One CLI run in a fresh directory; returns exit status, streams and new files.
    A run still going after TIMEOUT_S seconds is stopped, its exit status "timed out"."""
    for name, content in INPUTS.items():
        if not isinstance(content, bytes):
            text = json.dumps(content) if name.endswith(".json") else content
            content = text.encode("utf-8")
        (workdir / name).parent.mkdir(exist_ok=True)
        (workdir / name).write_bytes(content)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    try:
        proc = subprocess.run([sys.executable, "-c", RUNNER, *argv], cwd=workdir, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # one hung case must not end the whole diff
        proc = subprocess.CompletedProcess(exc.cmd, "timed out", exc.stdout or b"",
                                           exc.stderr or b"")
    files = {
        str(path.relative_to(workdir)): path.read_bytes()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and str(path.relative_to(workdir)) not in INPUTS
    }
    dirs = sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*") if p.is_dir())
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files, "dirs": dirs}


def version(src: Path) -> str:
    """The __version__ literal of the tree's entdist package."""
    text = (src / "entdist" / "__init__.py").read_text(encoding="utf-8")
    return re.search(r'^__version__ = "([^"]+)"', text, re.M).group(1)


def renamed(run: dict, old: str, new: str) -> dict:
    """The run with the version strings of the old tree's outputs read as the new tree's."""
    def swap(data: bytes) -> bytes:
        for template in ("entdist {}", '"version": "{}"'):
            data = data.replace(template.format(old).encode(), template.format(new).encode())
        return data

    return {**run, "stdout": swap(run["stdout"]), "stderr": swap(run["stderr"]),
            "files": {name: swap(data) for name, data in run["files"].items()}}


def kind_violations(mode: str, run: dict) -> list[str]:
    """How a run breaks the contract of its kind: an error case exits 1 or 2,
    writes one stderr line starting ``error: `` and no file; any other case
    exits 0 with nothing but ``note: `` lines on stderr."""
    lines = run["stderr"].decode(errors="replace").splitlines()
    if mode != "error":
        found = [] if run["exit"] == 0 else [f"exit status {run['exit']}, not 0"]
        return found + [f"stderr line {line!r}" for line in lines if not line.startswith("note: ")]
    found = [] if run["exit"] in (1, 2) else [f"exit status {run['exit']}, not 1 or 2"]
    if len(lines) != 1 or not lines[0].startswith("error: "):
        found.append(f"stderr is not one error: line: {run['stderr'].decode(errors='replace')!r}")
    made = [*run["files"], *(d for d in run["dirs"] if d not in INPUT_DIRS)]
    return found + [f"wrote {name}" for name in made]


def differences(old: dict, new: dict) -> list[str]:
    found = []
    if old["exit"] != new["exit"]:
        found.append(f"exit status {old['exit']} -> {new['exit']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            found.append(f"{stream}:\n      old {old[stream].decode(errors='replace')!r}"
                         f"\n      new {new[stream].decode(errors='replace')!r}")
    for name in sorted(set(old["files"]) | set(new["files"])):
        if name not in new["files"]:
            found.append(f"file {name}: only in old")
        elif name not in old["files"]:
            found.append(f"file {name}: only in new")
        elif old["files"][name] != new["files"][name]:
            found.append(f"file {name}: contents differ")
    if old["dirs"] != new["dirs"]:
        found.append(f"directories {old['dirs']} -> {new['dirs']}")
    return found


def compare(i: int, case, old: Path, new: Path, versions, tmp: str):
    """Run case i on both trees; returns its differences, whether they are the
    version's alone, and how the new tree's run breaks the contract of its kind."""
    name, mode, case_argv = case
    runs = []
    for side, src in (("old", old), ("new", new)):
        workdir = Path(tmp) / f"{i}-{side}"
        workdir.mkdir()
        runs.append(run_case(src, case_argv, workdir))
    found = differences(*runs)
    version_only = False
    if found and versions[0] != versions[1]:
        found = differences(renamed(runs[0], *versions), runs[1])
        version_only = not found
    moved = bool(found) and versions[0] == versions[1] and mode != "error" and not runs[0]["exit"]
    return found, version_only, moved, kind_violations(mode, runs[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="src directory of the reference tree")
    parser.add_argument("new", type=Path, help="src directory of the tree under test")
    parser.add_argument("--mode", choices=("exact", "sampled", "error"),
                        help="only the cases of this kind")
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "entdist" / "cli.py").is_file():
            parser.error(f"{src} holds no entdist/cli.py")

    cases = [c for c in CASES if args.mode in (None, c[1])]
    versions = version(args.old), version(args.new)
    tally: dict[str, list[int]] = {}  # mode -> cases, differ, version only, off contract
    moved = []  # exact and sampled cases whose bytes moved under one version
    # each case runs in its own processes and directories, two cases at a time at most;
    # the results are read in case order, so the output is a serial run's
    workers = min(2, len(os.sched_getaffinity(0)))
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp, \
            ThreadPoolExecutor(workers) as pool:
        results = pool.map(lambda i: compare(i, cases[i], args.old, args.new, versions, tmp),
                           range(len(cases)))
        for (name, mode, case_argv), (found, version_only, bytes_moved, broken) in \
                zip(cases, results):
            if bytes_moved:
                moved.append(name)
            counts = tally.setdefault(mode, [0, 0, 0, 0])
            counts[0] += 1
            counts[1] += bool(found)
            counts[2] += version_only
            counts[3] += bool(broken)
            if version_only:
                print(f"{name} [{mode}]: version only")
            elif found:
                print(f"{name} [{mode}]: entdist {' '.join(case_argv)}")
                for line in found:
                    print(f"    {line}")
            if broken:
                print(f"{name} [{mode}]: off the {mode} contract on the new tree")
                for line in broken:
                    print(f"    {line}")
    for mode, (total, differ, version_only, broken) in tally.items():
        print(f"{mode}: {total} cases, {differ} differ, {version_only} version only, "
              f"{broken} off contract")
    if moved:
        print(f"bytes moved without a version bump: {', '.join(moved)}")
    return 1 if any(sum(counts[1:]) for counts in tally.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
