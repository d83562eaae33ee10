"""REP001 mutant: an unseeded generator breaks bit-reproducibility."""

import numpy as np

rng = np.random.default_rng()  # REP001
