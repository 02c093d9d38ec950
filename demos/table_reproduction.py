"""Recompute the two published classification tables.

The theory column comes out of the exact-mode estimator; a sampled column
at 500 shots with the measured-fidelity noise preset stands in for the
experiment.  Five printed theory entries cannot be recovered from the
printed test vectors (which are rounded to two decimals); they are marked.
"""

from entdist.experiments import table_run
from entdist.noise import noise_preset
from entdist.protocol import EstimatorConfig

sampled = EstimatorConfig(mode="sampled", shots=500, seed=0,
                          noise=noise_preset("paper-2012-optics"))

for name in ("table1", "table2"):
    result = table_run(name, sampled_cfg=sampled)
    print(f"== {name}:  A = {result['reference_a']}  B = {result['reference_b']} ==")
    print(f"{'':>3} {'printed':>8} {'computed':>9} {'sampled':>8}  group")
    rows = result["rows"]  # the table as columns, name -> one value per table row
    for index, theory, computed, noisy, group, match in zip(
            rows["index"], rows["theory_diff"], rows["computed_diff"], rows["sampled_diff"],
            rows["group"], rows["matches_paper_theory"]):
        flag = "" if match else "  <- off the printed value"
        print(f"{index:>3} {theory:>8.2f} {computed:>9.4f} {noisy:>8.2f}  {group}{flag}")
    if result["mismatched_rows"]:
        print(f"rows not matching the printed two decimals: {result['mismatched_rows']}")
        print("(the printed vectors are rounded; the original encodings were not published)")
    print()
