"""Round-trip a model through the matrix-file format, then self-verify.

The file format is one JSON object: "dim", "beta", optional "N", and
"T"/"S" as dim x dim arrays of [re, im] pairs.  Anything else in the
file is rejected, which is what you want from an interchange format.
The same file works on the command line via
    fidsus report --model file --path demos/out/pair.json
"""

import json
import os

import numpy as np

from fidsus import chi_f_spectral, model_from_file, random_pair, run_verify

os.makedirs("demos/out", exist_ok=True)

# export a random family, one block, by materializing its operators in
# the block's eigenbasis
fam = random_pair(dim=4, seed=11, beta=1.5)
(block,) = fam.blocks
path = "demos/out/pair.json"
payload = {
    "dim": 4,
    "beta": 1.5,
    "T": [[[float(x), 0.0] for x in row] for row in np.diag(block.levels)],
    "S": [[[float(z.real), float(z.imag)] for z in row] for row in block.s_eig],
}
with open(path, "w", encoding="utf-8") as fh:
    json.dump(payload, fh)

loaded = model_from_file(path)
print(f"chi_f of the original family: {chi_f_spectral(fam).total:.15f}")
print(f"chi_f after the round trip:   {chi_f_spectral(loaded).total:.15f}")

# a small self-verification pass; the full default (1000 instances) is
# what `fidsus verify` runs, and its output is byte-stable per seed
summary = run_verify(seed=1, instances=25, dim_max=8)
print()
print(summary.text, end="")
